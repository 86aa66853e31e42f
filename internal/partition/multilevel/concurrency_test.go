package multilevel

import (
	"sync"
	"testing"
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
