package slab

import (
	"cmp"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"
)

// TestCarvedValuesNeverAlias carves random singles and lanes, with random
// chunk sizes, over a pointer type and a pointer-free type, writing a
// distinct mark into every value and appending to random earlier lanes as
// it goes. Every value must start zeroed, every lane must have capacity
// exactly n, no two carved values may share memory, and at the end every
// single and lane must still hold exactly its own marks: an append to one
// lane never reaches another.
func TestCarvedValuesNeverAlias(t *testing.T) {
	t.Run("pointer", func(t *testing.T) {
		checkNeverAlias(t, func(i int) *int { return &i })
	})
	t.Run("pointer-free", func(t *testing.T) {
		checkNeverAlias(t, func(i int) [3]int32 { return [3]int32{int32(i), -int32(i), 7} })
	})
}

func checkNeverAlias[T comparable](t *testing.T, mark func(int) T) {
	var zero T
	size := unsafe.Sizeof(zero)
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var c Chunks[T]
		var (
			singles []*T
			oneWant []T
			carved  [][]T // every lane as carved: keeps its chunk alive
			lanes   [][]T // every lane as appended to since
			want    [][]T
			spans   [][2]uintptr // [start, end) of every non-empty value carved
			next    int
		)
		fill := func(what string, vs []T) {
			for j := range vs {
				if vs[j] != zero {
					t.Fatalf("seed %d: %s value %d starts as %v, not zero", seed, what, j, vs[j])
				}
				vs[j] = mark(next)
				next++
			}
			if len(vs) > 0 {
				start := uintptr(unsafe.Pointer(&vs[0]))
				spans = append(spans, [2]uintptr{start, start + uintptr(len(vs))*size})
			}
		}
		for step := 0; step < 2000; step++ {
			chunk := 1 + rng.Intn(48)
			switch rng.Intn(3) {
			case 0:
				p := c.One(chunk)
				fill(fmt.Sprintf("step %d single", step), unsafe.Slice(p, 1))
				singles = append(singles, p)
				oneWant = append(oneWant, *p)
			case 1:
				n := rng.Intn(64)
				lane := c.Lane(n, chunk)
				if len(lane) != n || cap(lane) != n {
					t.Fatalf("seed %d step %d: Lane(%d, %d) has len %d cap %d", seed, step, n, chunk, len(lane), cap(lane))
				}
				fill(fmt.Sprintf("step %d lane", step), lane)
				carved = append(carved, lane)
				lanes = append(lanes, lane)
				want = append(want, slices.Clone(lane))
			case 2:
				if len(lanes) == 0 {
					continue
				}
				k := rng.Intn(len(lanes))
				v := mark(next)
				next++
				lanes[k] = append(lanes[k], v)
				want[k] = append(want[k], v)
			}
		}
		for i, p := range singles {
			if *p != oneWant[i] {
				t.Fatalf("seed %d: single %d holds %v, want %v", seed, i, *p, oneWant[i])
			}
		}
		for k := range lanes {
			if !slices.Equal(lanes[k], want[k]) {
				t.Fatalf("seed %d: lane %d holds %v, want %v", seed, k, lanes[k], want[k])
			}
		}
		slices.SortFunc(spans, func(a, b [2]uintptr) int { return cmp.Compare(a[0], b[0]) })
		for i := 1; i < len(spans); i++ {
			if spans[i][0] < spans[i-1][1] {
				t.Fatalf("seed %d: carved values %v and %v overlap", seed, spans[i-1], spans[i])
			}
		}
		runtime.KeepAlive(carved)
	}
}
