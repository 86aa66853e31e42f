//go:build !race

package workload

import (
	"io"
	"runtime"
	"testing"
	"time"
)

// TestGenerateAllocs is the generator's allocation ceiling (the race
// detector instruments allocations, hence the build tag): heap objects per
// record of a small era history, generator construction included, pinned so
// generation does not erode. Five-minute blocks over the fifteen days of
// miniEras make 4,320 blocks, so a per-block or every-Nth-block cost —
// sealing a block's commitments was one — shows up against the records.
func TestGenerateAllocs(t *testing.T) {
	const ceiling = 4.4 // allocations per record; 4.01 measured
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	gen, err := New(Config{Seed: 1, Scale: 0.05, Eras: miniEras(), BlockInterval: 5 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	s := gen.Stream()
	records := 0
	for {
		if _, err := s.Read(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		records++
	}
	runtime.ReadMemStats(&after)
	perRecord := float64(after.Mallocs-before.Mallocs) / float64(records)
	t.Logf("%d blocks, %d records, %.3f allocs/record", gen.Stats().Blocks, records, perRecord)
	if perRecord > ceiling {
		t.Errorf("generation: %.3f allocs/record, want <= %v", perRecord, ceiling)
	}
}
