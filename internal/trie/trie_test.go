package trie

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"ethpart/internal/golden"
	"ethpart/internal/types"
)

// rootsFile pins the root of every case in rootCases.
//
// Provenance: the committed file is the output of the insert/lookup/delete
// pointer trie this package held up to commit b1a91af. This test file used
// only New, Put and Root, so it dropped into a clean checkout of that
// commit as it was, and run there wrote the file; the root fold that
// replaced the pointer trie must reproduce every root in it bit for bit.
// Every block hash and state root in the repository sits downstream of
// these roots, so re-pin the file (DESIGN.md §10, "Re-pinning") only in a
// PR whose stated purpose is to change the commitment.
const rootsFile = "testdata/roots.json"

type kv struct{ key, value []byte }

type rootCase struct {
	name string
	kvs  []kv
}

// randomSet draws n distinct keys of 1–40 bytes with values of 0–120 bytes
// (a state leaf is a 20-byte address over a 104-byte account encoding, a
// transaction leaf an 8-byte index over a 32-byte hash).
func randomSet(n int, seed int64) []kv {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool, n)
	out := make([]kv, 0, n)
	for len(out) < n {
		k := make([]byte, 1+rng.Intn(40))
		rng.Read(k)
		if seen[string(k)] {
			continue
		}
		seen[string(k)] = true
		v := make([]byte, rng.Intn(121))
		rng.Read(v)
		out = append(out, kv{k, v})
	}
	return out
}

// sharedPrefix reports how many leading bits the hashed paths of a and b
// have in common.
func sharedPrefix(a, b []byte) int {
	pa, pb := types.HashData(a), types.HashData(b)
	for i := range pa {
		if x := pa[i] ^ pb[i]; x != 0 {
			return 8*i + bits.LeadingZeros8(x)
		}
	}
	return 8 * len(pa)
}

// prefixPair returns two keys whose paths agree on at least n leading bits,
// found by scanning "<n>-1", "<n>-2", … against "<n>-0": the pair sits under
// a chain of n single-child branches.
func prefixPair(n int) []kv {
	base := []byte(fmt.Sprintf("%d-0", n))
	for i := 1; ; i++ {
		k := []byte(fmt.Sprintf("%d-%d", n, i))
		if sharedPrefix(base, k) >= n {
			return []kv{{base, []byte("left")}, {k, []byte("right")}}
		}
	}
}

// rootCases is the pinned table: the empty set, one and two keys, pairs
// under 8-, 16- and 20-deep branch chains (alone and beside 100 random
// keys), and eleven sizes from 3 to 5,000 on four seeds each.
func rootCases() []rootCase {
	cases := []rootCase{
		{"empty", nil},
		{"one", randomSet(1, 1)},
		{"two", randomSet(2, 2)},
	}
	for _, n := range []int{8, 16, 20} {
		pair := prefixPair(n)
		cases = append(cases,
			rootCase{fmt.Sprintf("prefix-%d", n), pair},
			rootCase{fmt.Sprintf("prefix-%d+100", n), append(randomSet(100, int64(n)), pair...)})
	}
	for _, n := range []int{3, 5, 10, 17, 50, 100, 256, 500, 1000, 2000, 5000} {
		for seed := int64(1); seed <= 4; seed++ {
			cases = append(cases, rootCase{fmt.Sprintf("n=%d/seed=%d", n, seed), randomSet(n, seed)})
		}
	}
	return cases
}

func rootOf(kvs []kv) types.Hash {
	tr := New()
	for _, e := range kvs {
		tr.Put(e.key, e.value)
	}
	return tr.Root()
}

// rootHex is rootOf as the goldens store it: 0x-prefixed hex.
func rootHex(kvs []kv) string {
	h := rootOf(kvs)
	return fmt.Sprintf("0x%x", h[:])
}

// TestRootGoldens checks every root in the table against the pointer
// trie's, once in generation order and once shuffled, so the fold is also
// shown independent of insertion order at every size.
func TestRootGoldens(t *testing.T) {
	cases := rootCases()
	g := golden.Object(t, rootsFile, func(got, want string) bool { return got == want })
	for _, c := range cases {
		root := rootHex(c.kvs)
		g.Check(t, c.name, root)
		shuffled := append([]kv(nil), c.kvs...)
		rand.New(rand.NewSource(99)).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		if got := rootHex(shuffled); got != root {
			t.Errorf("%s shuffled: root %s, in order %s", c.name, got, root)
		}
	}
	g.Done(t)
}

func TestEmptyTrie(t *testing.T) {
	if r := New().Root(); r != (types.Hash{}) {
		t.Errorf("empty root = %v, want zero", r)
	}
	var zero Trie
	if r := zero.Root(); r != (types.Hash{}) {
		t.Errorf("zero-value root = %v, want zero", r)
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

// TestRootRepeatable: Root reorders the leaves in place, which must not
// change what a second call, or a call after further Puts, returns.
func TestRootRepeatable(t *testing.T) {
	set := randomSet(300, 5)
	tr := New()
	for _, e := range set[:200] {
		tr.Put(e.key, e.value)
	}
	if first, second := tr.Root(), tr.Root(); first != second {
		t.Errorf("second Root = %v, first %v", second, first)
	}
	for _, e := range set[200:] {
		tr.Put(e.key, e.value)
	}
	if got, want := tr.Root(), rootOf(set); got != want {
		t.Errorf("Root after further Puts = %v, want %v", got, want)
	}
}

// TestPutCopiesValue: the caller may reuse its key and value buffers as soon
// as Put returns (chain.TxRoot does, for the index key).
func TestPutCopiesValue(t *testing.T) {
	tr := New()
	k, v := []byte("k"), []byte("mutable")
	tr.Put(k, v)
	k[0], v[0] = 'X', 'X'
	if got, want := tr.Root(), rootOf([]kv{{[]byte("k"), []byte("mutable")}}); got != want {
		t.Errorf("root follows the caller's buffers after Put: %v, want %v", got, want)
	}
}

// TestPutOverwrite is the duplicate-key rule: a value is part of the root,
// a key set has each key once, and a second Put of one is reported when the
// root is taken — not folded into an out-of-range path bit at depth 256.
func TestPutOverwrite(t *testing.T) {
	if rootOf([]kv{{[]byte("k"), []byte("v1")}}) == rootOf([]kv{{[]byte("k"), []byte("v2")}}) {
		t.Error("root must change when a value changes")
	}
	for _, others := range []int{0, 50} {
		tr := New()
		for _, e := range randomSet(others, 3) {
			tr.Put(e.key, e.value)
		}
		tr.Put([]byte("dup"), []byte("v1"))
		tr.Put([]byte("dup"), []byte("v2"))
		func() {
			defer func() {
				if r := recover(); r != "trie: duplicate key" {
					t.Errorf("with %d other keys: recovered %v, want the duplicate-key panic", others, r)
				}
			}()
			tr.Root()
		}()
	}
}
