//go:build !race

package workload

import (
	"io"
	"runtime"
	"testing"
	"time"

	"ethpart/internal/trace"
)

// TestGenerateAllocs is the generator's allocation ceiling (the race
// detector instruments allocations, hence the build tag): heap objects per
// record of a small era history, generator construction included, pinned so
// generation does not erode. Five-minute blocks over the fifteen days of
// miniEras make 4,320 blocks, so a per-block or every-Nth-block cost —
// sealing a block's commitments was one, a receipt object per transaction
// another — shows up against the records.
func TestGenerateAllocs(t *testing.T) {
	const ceiling = 2.4 // allocations per record; 2.134 measured
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
	t.Logf("%d records, %.3f allocs/record", records, perRecord)
	if perRecord > ceiling {
		t.Errorf("generation: %.3f allocs/record, want <= %v", perRecord, ceiling)
	}
}

// TestGenerateLiveBytes is the generator's live-heap ceiling: heap bytes
// per record still reachable once a small scenario history is drained, with
// the stream (and so the generator, its chain state and its
// preferential-attachment pools) kept alive beside the records. A run's
// set-up heap goal is twice this live set, and nothing returns the memory
// the heap grew into, so it bounds what every replay's high-water mark
// starts from.
func TestGenerateLiveBytes(t *testing.T) {
	const ceiling = 85 // bytes per record; 77.4 measured (130.7 with 56-byte records and address pools)
	sc, err := LookupScenario("diurnal-exchange")
	if err != nil {
		t.Fatal(err)
	}
	sc.Seed = 1
	sc.Arrival.Duration = 3 * 24 * time.Hour
	sc.Arrival.RatePerHour = 600
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	gen, err := NewScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	s := gen.Stream()
	var records []trace.Record
	for {
		rec, err := s.Read()
		if err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		records = append(records, rec)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perRecord := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(len(records))
	t.Logf("%d records, %d vertices, %.1f live bytes/record", len(records), s.Registry().Len(), perRecord)
	if perRecord > ceiling {
		t.Errorf("generation: %.1f live bytes/record, want <= %v", perRecord, ceiling)
	}
	runtime.KeepAlive(s)
	runtime.KeepAlive(records)
}
