package graph

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// collidingIDs returns n vertex IDs whose probe starts at the last slot of
// every table up to 4,096 slots: one probe chain that wraps around the end
// of the table, whatever size the table has grown to.
func collidingIDs(n int) []VertexID {
	const mask = 4095
	var ids []VertexID
	for v := VertexID(0); len(ids) < n; v++ {
		if probeStart(v, mask) == mask {
			ids = append(ids, v)
		}
	}
	return ids
}

// tableShape checks that row r has a table exactly while it is past
// rowIndexThreshold, of a power of two of slots, at most half of them
// full. It returns "" when that holds.
func tableShape(r *row) string {
	n, size := len(r.e), len(r.idx)
	if (size != 0) != (n > rowIndexThreshold) || size&(size-1) != 0 || size != 0 && 2*n > size {
		return fmt.Sprintf("%d entries with a %d-slot table", n, size)
	}
	return ""
}

// indexMismatch checks row r, holding keys in order, against the keys
// themselves: the entries, the table's shape (present exactly past
// rowIndexThreshold, a power of two, at most half full, every position
// filed once) and find's answer for every ID in probe, which is the
// position a scan of keys finds it at, or -1. It returns "" when all of
// that holds.
func indexMismatch(r *row, keys []VertexID, probe []VertexID) string {
	if len(r.e) != len(keys) {
		return fmt.Sprintf("row holds %d entries, the oracle %d", len(r.e), len(keys))
	}
	pos := make(map[VertexID]int32, len(keys))
	for i, k := range keys {
		if r.e[i].to != k {
			return fmt.Sprintf("entry %d is %d, the oracle's %d", i, r.e[i].to, k)
		}
		pos[k] = int32(i)
	}
	if d := tableShape(r); d != "" {
		return d
	}
	if n := len(r.e); len(r.idx) != 0 {
		filed := make([]bool, n)
		for _, p := range r.idx {
			if p == 0 {
				continue
			}
			if p < 0 || int(p) > n || filed[p-1] {
				return fmt.Sprintf("slot value %d in a %d-entry row, or filed twice", p, n)
			}
			filed[p-1] = true
		}
		for p, ok := range filed {
			if !ok {
				return fmt.Sprintf("position %d is not in the table", p)
			}
		}
	}
	for _, v := range probe {
		want, ok := pos[v]
		if !ok {
			want = -1
		}
		if got := r.find(v); got != want {
			return fmt.Sprintf("find(%d) = %d, the keys say %d", v, got, want)
		}
	}
	return ""
}

// TestPropertyRowIndex drives one hub row through random inserts and
// increments, tombstones compacted away, graph Resets and the hub's
// retirement and slot reuse, checking the row and its position table
// against the keys it was given after every step. Each round grows the row
// toward a random size — under rowIndexThreshold, or through tables of up
// to 4,096 slots — and then shrinks it. The keys mix random IDs with IDs
// that share one probe chain wrapping past the end of the table.
func TestPropertyRowIndex(t *testing.T) {
	colliding := collidingIDs(64)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pool := append([]VertexID(nil), colliding...)
		for len(pool) < 2500 {
			pool = append(pool, VertexID(rng.Intn(1<<22)))
		}
		const hub = VertexID(1 << 23)
		g := New()
		g.EnsureVertex(hub, KindContract)
		var keys []VertexID
		held := make(map[VertexID]bool)
		fail := func(round int, op, d string) bool {
			t.Errorf("seed %d round %d, after %s: %s", seed, round, op, d)
			return false
		}
		for round := 0; round < 12; round++ {
			target := []int{20, rowIndexThreshold + 1, 150, 700, 1500}[rng.Intn(5)]
			for len(keys) < target {
				r := &g.out[g.slotOf(hub)]
				v := pool[rng.Intn(len(pool))]
				if held[v] {
					if created, _, _ := r.add(g, v, 1); created {
						return fail(round, "add", fmt.Sprintf("created %d, which the row holds", v))
					}
					continue
				}
				size := len(r.idx)
				r.insert(g, v, 1)
				keys = append(keys, v)
				held[v] = true
				if p := r.find(v); p != int32(len(keys)-1) {
					return fail(round, "insert", fmt.Sprintf("find(%d) = %d, inserted at %d", v, p, len(keys)-1))
				}
				if d := tableShape(r); d != "" {
					return fail(round, "insert", d)
				}
				// The whole row whenever the table is built or resized, and
				// every 16th insert between.
				if len(r.idx) != size || len(keys)%16 == 0 {
					if d := indexMismatch(r, keys, pool); d != "" {
						return fail(round, "insert", d)
					}
				}
			}
			// Tombstone a random share — most of the row at times, taking
			// it back under the threshold — and compact, a few times over.
			for c := 0; c < 3; c++ {
				r := &g.out[g.slotOf(hub)]
				drop := rng.Float64()
				kept := keys[:0]
				for i := range r.e {
					if rng.Float64() < drop {
						r.e[i].w = 0
						delete(held, keys[i])
						continue
					}
					kept = append(kept, keys[i])
				}
				keys = kept
				r.compact()
				if d := indexMismatch(r, keys, pool); d != "" {
					return fail(round, "compact", d)
				}
			}
			switch rng.Intn(3) {
			case 0:
				g.Reset()
				g.EnsureVertex(hub, KindContract)
			case 1:
				s := g.slotOf(hub)
				g.retireSlot(s)
				g.EnsureVertex(hub, KindContract)
				if g.slotOf(hub) != s {
					return fail(round, "retire", fmt.Sprintf("the hub came back in slot %d, not its retired slot %d", g.slotOf(hub), s))
				}
			default:
				continue
			}
			keys, held = keys[:0], make(map[VertexID]bool)
			if d := indexMismatch(&g.out[g.slotOf(hub)], keys, pool); d != "" {
				return fail(round, "reset or retire", d)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
