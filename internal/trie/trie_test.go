package trie

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"ethpart/internal/types"
)

func TestEmptyTrie(t *testing.T) {
	tr := New()
	if tr.Len() != 0 {
		t.Errorf("Len = %d, want 0", tr.Len())
	}
	if !tr.Root().IsZero() {
		t.Errorf("empty root = %v, want zero", tr.Root())
	}
	if _, ok := tr.Get([]byte("missing")); ok {
		t.Error("Get on empty trie must miss")
	}
	if tr.Delete([]byte("missing")) {
		t.Error("Delete on empty trie must report false")
	}
}

func TestPutGet(t *testing.T) {
	tr := New()
	tr.Put([]byte("a"), []byte("1"))
	tr.Put([]byte("b"), []byte("2"))
	tr.Put([]byte("c"), []byte("3"))
	if tr.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tr.Len())
	}
	for k, want := range map[string]string{"a": "1", "b": "2", "c": "3"} {
		got, ok := tr.Get([]byte(k))
		if !ok || string(got) != want {
			t.Errorf("Get(%q) = %q, %v; want %q", k, got, ok, want)
		}
	}
	if _, ok := tr.Get([]byte("d")); ok {
		t.Error("Get of absent key must miss")
	}
}

func TestPutOverwrite(t *testing.T) {
	tr := New()
	tr.Put([]byte("k"), []byte("v1"))
	r1 := tr.Root()
	tr.Put([]byte("k"), []byte("v2"))
	if tr.Len() != 1 {
		t.Fatalf("Len = %d after overwrite, want 1", tr.Len())
	}
	got, _ := tr.Get([]byte("k"))
	if string(got) != "v2" {
		t.Errorf("Get = %q, want v2", got)
	}
	if tr.Root() == r1 {
		t.Error("root must change when a value changes")
	}
}

func TestPutCopiesValue(t *testing.T) {
	tr := New()
	v := []byte("mutable")
	tr.Put([]byte("k"), v)
	v[0] = 'X'
	got, _ := tr.Get([]byte("k"))
	if string(got) != "mutable" {
		t.Errorf("stored value aliased caller slice: %q", got)
	}
}

func TestDelete(t *testing.T) {
	tr := New()
	keys := []string{"alpha", "beta", "gamma", "delta"}
	for i, k := range keys {
		tr.Put([]byte(k), []byte{byte(i)})
	}
	if !tr.Delete([]byte("beta")) {
		t.Fatal("Delete(beta) must succeed")
	}
	if tr.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tr.Len())
	}
	if _, ok := tr.Get([]byte("beta")); ok {
		t.Error("deleted key still present")
	}
	for _, k := range []string{"alpha", "gamma", "delta"} {
		if _, ok := tr.Get([]byte(k)); !ok {
			t.Errorf("Delete removed unrelated key %q", k)
		}
	}
}

func TestRootDeterministicAcrossInsertOrder(t *testing.T) {
	keys := []string{"one", "two", "three", "four", "five", "six"}
	build := func(order []int) types.Hash {
		tr := New()
		for _, i := range order {
			tr.Put([]byte(keys[i]), []byte(keys[i]+"-value"))
		}
		return tr.Root()
	}
	want := build([]int{0, 1, 2, 3, 4, 5})
	got := build([]int{5, 3, 1, 0, 4, 2})
	if want != got {
		t.Error("root must be independent of insertion order")
	}
}

func TestDeleteRestoresRoot(t *testing.T) {
	tr := New()
	tr.Put([]byte("a"), []byte("1"))
	tr.Put([]byte("b"), []byte("2"))
	before := tr.Root()

	tr.Put([]byte("c"), []byte("3"))
	if tr.Root() == before {
		t.Fatal("adding a key must change the root")
	}
	if !tr.Delete([]byte("c")) {
		t.Fatal("delete failed")
	}
	if tr.Root() != before {
		t.Error("deleting the added key must restore the canonical root")
	}
}

func TestPropertyModelConformance(t *testing.T) {
	// Property: after any sequence of Put/Delete operations the trie agrees
	// with a map model, and the root matches a fresh trie built from the
	// model (canonical shape).
	f := func(seed int64, opsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		ops := int(opsRaw%100) + 5
		tr := New()
		model := map[string]string{}
		for i := 0; i < ops; i++ {
			k := fmt.Sprintf("k%d", rng.Intn(20))
			switch rng.Intn(3) {
			case 0, 1:
				v := fmt.Sprintf("v%d", rng.Intn(1000))
				tr.Put([]byte(k), []byte(v))
				model[k] = v
			case 2:
				got := tr.Delete([]byte(k))
				_, want := model[k]
				if got != want {
					return false
				}
				delete(model, k)
			}
		}
		if tr.Len() != len(model) {
			return false
		}
		for k, v := range model {
			got, ok := tr.Get([]byte(k))
			if !ok || string(got) != v {
				return false
			}
		}
		fresh := New()
		for k, v := range model {
			fresh.Put([]byte(k), []byte(v))
		}
		return tr.Root() == fresh.Root()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func BenchmarkTriePut(b *testing.B) {
	tr := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Put([]byte(fmt.Sprintf("key-%d", i)), []byte("value"))
	}
}

func BenchmarkTrieRootAfterUpdates(b *testing.B) {
	tr := New()
	for i := 0; i < 10000; i++ {
		tr.Put([]byte(fmt.Sprintf("key-%d", i)), []byte("value"))
	}
	tr.Root() // warm the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Put([]byte(fmt.Sprintf("key-%d", i%10000)), []byte{byte(i)})
		tr.Root()
	}
}
