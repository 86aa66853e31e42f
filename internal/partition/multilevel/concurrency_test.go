package multilevel

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestConcurrentCallersShareOnePartitioner: a Partitioner is only its
// Config, so eight goroutines calling Partition on one instance must each
// get the partition a lone caller gets.
func TestConcurrentCallersShareOnePartitioner(t *testing.T) {
	c := powerLawCSR()
	p := New(Config{Seed: 7})
	serial, err := p.Partition(c, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := partsDigest(serial)

	var wg sync.WaitGroup
	got := make([]string, 8)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts, err := p.Partition(c, 5)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = partsDigest(parts)
		}()
	}
	wg.Wait()
	for i, g := range got {
		if g != want {
			t.Errorf("caller %d: digest %s, serial %s", i, g, want)
		}
	}
}

// TestHandoffsAreRaceCleanAndJoined drives the handoff path — several
// k = 2 nodes whose refine phases overlap the next draw phase, trial
// refinements side by side — on a graph big enough for every phase to take
// a while, with more Ps than this box may have so the scheduler interleaves
// them. Under -race (CI) this is the data-race check; everywhere it checks
// that the answer is the single-P answer and that Partition has joined
// every goroutine it started by the time it returns.
func TestHandoffsAreRaceCleanAndJoined(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	c := powerLawCSR()
	p := New(Config{Seed: 1})
	want := make(map[int]string)
	for _, k := range []int{8, 5} {
		serial, err := p.Partition(c, k)
		if err != nil {
			t.Fatal(err)
		}
		want[k] = partsDigest(serial)
	}

	runtime.GOMAXPROCS(4)
	before := runtime.NumGoroutine()
	for k, w := range want {
		for rep := 0; rep < 3; rep++ {
			parts, err := p.Partition(c, k)
			if err != nil {
				t.Fatal(err)
			}
			if got := partsDigest(parts); got != w {
				t.Errorf("k=%d rep %d: digest %s with 4 Ps, %s with 1", k, rep, got, w)
			}
		}
	}
	// A goroutine that has signalled its WaitGroup may still be on its way
	// out; give it a moment, but none may outlive that.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines before the Partition calls, %d after", before, after)
	}
}
