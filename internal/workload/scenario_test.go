package workload

import (
	"io"
	"testing"
	"time"

	"ethpart/internal/trace"
	"ethpart/internal/types"
)

// shortScenario shrinks a library scenario so every property test runs in
// milliseconds while still exercising the full composition.
func shortScenario(sc Scenario) Scenario {
	sc.Arrival.Duration = 36 * time.Hour
	return sc
}

func drainScenario(t *testing.T, sc Scenario) (*Generator, *Stream, []trace.Record) {
	t.Helper()
	gen, err := NewScenario(sc)
	if err != nil {
		t.Fatalf("%s: %v", sc.Name, err)
	}
	s := gen.Stream()
	recs, skipped, err := trace.ReadAll(s)
	if err != nil {
		t.Fatalf("%s: draining: %v", sc.Name, err)
	}
	if skipped != 0 {
		t.Fatalf("%s: %d records skipped", sc.Name, skipped)
	}
	if len(recs) == 0 {
		t.Fatalf("%s: no records produced", sc.Name)
	}
	return gen, s, recs
}

func TestScenarioLibraryValidates(t *testing.T) {
	lib := Scenarios()
	if len(lib) < 3 {
		t.Fatalf("library has %d scenarios, want ≥ 3", len(lib))
	}
	seen := map[string]bool{}
	for _, sc := range lib {
		if seen[sc.Name] {
			t.Errorf("duplicate scenario name %q", sc.Name)
		}
		seen[sc.Name] = true
		if err := sc.Validate(); err != nil {
			t.Errorf("%s: %v", sc.Name, err)
		}
		if sc.Description == "" {
			t.Errorf("%s: empty description", sc.Name)
		}
	}
	if _, err := LookupScenario("no-such-scenario"); err == nil {
		t.Error("lookup of unknown scenario succeeded")
	}
}

// TestResolveScenarioOverrides covers the one function every binary's
// -scenario/-arrival/-hours/-seed flags go through: zero values keep the
// library scenario's own, set ones replace them, and a negative duration is
// an error instead of silently running the library duration.
func TestResolveScenarioOverrides(t *testing.T) {
	lib, err := LookupScenario("flash-nft-mint")
	if err != nil {
		t.Fatal(err)
	}
	kept, err := ResolveScenario("flash-nft-mint", "", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if kept.Arrival != lib.Arrival || kept.Seed != lib.Seed {
		t.Errorf("zero overrides changed the scenario: arrival %+v seed %d, library %+v seed %d",
			kept.Arrival, kept.Seed, lib.Arrival, lib.Seed)
	}
	set, err := ResolveScenario("flash-nft-mint", "poisson", 1.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	if set.Arrival.Kind != ArrivalPoisson || set.Arrival.Duration != 90*time.Minute || set.Seed != 7 {
		t.Errorf("overrides not applied: kind %v duration %v seed %d", set.Arrival.Kind, set.Arrival.Duration, set.Seed)
	}
	if set.Arrival.RatePerHour != lib.Arrival.RatePerHour || !set.Arrival.Start.Equal(lib.Arrival.Start) {
		t.Error("swapping the arrival kind must keep the scenario's rate and start")
	}
	for _, bad := range []struct {
		name, arrival string
		hours         float64
	}{
		{"flash-nft-mint", "", -5},
		{"flash-nft-mint", "", -0.001},
		{"flash-nft-mint", "bursty", 0},
		{"no-such-scenario", "", 0},
	} {
		if _, err := ResolveScenario(bad.name, bad.arrival, bad.hours, 1); err == nil {
			t.Errorf("ResolveScenario(%q, %q, %g) accepted", bad.name, bad.arrival, bad.hours)
		}
	}
}

// TestScenarioRecordValidity is the shared validity property every
// composition must satisfy: senders exist and are funded (no skipped
// transactions), per-sender nonces are monotone on-chain, contract targets
// are marked in the registry, and arrival timestamps never decrease.
func TestScenarioRecordValidity(t *testing.T) {
	for _, sc := range Scenarios() {
		sc := shortScenario(sc)
		t.Run(sc.Name, func(t *testing.T) {
			gen, s, recs := drainScenario(t, sc)

			// Funded senders: the generator's balance bookkeeping must
			// never let a transaction bounce.
			if st := gen.Stats(); st.Skipped != 0 {
				t.Errorf("%d transactions skipped (underfunded or bad nonce)", st.Skipped)
			}

			// Monotone nonces per sender, checked on the blocks the
			// generator executed. It keeps no history, so a twin generator
			// of the same seed replays the stream block by block; a sender's
			// first nonce continues from the state the bootstrap blocks
			// left. A block skips nothing (NextBlock fails otherwise), so
			// the queued transactions are the executed ones.
			twin, err := NewScenario(sc)
			if err != nil {
				t.Fatal(err)
			}
			boot := twin.State().Copy()
			nonces := map[types.Address]uint64{}
			for {
				b, ok, err := twin.NextBlock()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				if b == nil {
					continue
				}
				for _, tx := range twin.blockTxs {
					want, seen := nonces[tx.From]
					if !seen {
						want = boot.GetNonce(tx.From)
					}
					if tx.Nonce != want {
						t.Fatalf("block %d: sender %x nonce %d, want %d",
							b.Number, tx.From[:8], tx.Nonce, want)
					}
					nonces[tx.From] = tx.Nonce + 1
				}
			}
			if twin.State().Commit() != gen.State().Commit() {
				t.Fatal("twin generator diverged from the streamed one")
			}

			// Contract targets marked; arrival timestamps non-decreasing
			// within each block, block times non-decreasing overall.
			reg := s.Registry()
			st := gen.State()
			lastBlock, lastTime := uint32(0), int64(0)
			blockStart := map[uint32]int64{}
			for i, r := range recs {
				if r.Block < lastBlock {
					t.Fatalf("record %d: block %d after block %d", i, r.Block, lastBlock)
				}
				if r.Block == lastBlock && r.Time < lastTime {
					t.Fatalf("record %d: time %d before %d in block %d", i, r.Time, lastTime, r.Block)
				}
				if first, ok := blockStart[r.Block]; !ok {
					blockStart[r.Block] = r.Time
					if r.Time < lastTime {
						t.Fatalf("block %d starts at %d, before previous block's last arrival %d",
							r.Block, r.Time, lastTime)
					}
					_ = first
				}
				lastBlock, lastTime = r.Block, r.Time
				addr, ok := reg.Address(r.To)
				if !ok {
					t.Fatalf("record %d: unregistered target %d", i, r.To)
				}
				hasCode := len(st.GetCode(addr)) > 0
				if hasCode && !r.ToContract {
					t.Errorf("record %d: target %d has code but is not marked a contract", i, r.To)
				}
				if r.ToContract != reg.IsContract(r.To) {
					t.Errorf("record %d: ToContract=%v disagrees with registry", i, r.ToContract)
				}
			}
		})
	}
}

// TestScenarioDeterminism: same Seed ⇒ byte-identical record stream across
// two fresh generators, for every named scenario.
func TestScenarioDeterminism(t *testing.T) {
	for _, sc := range Scenarios() {
		sc := shortScenario(sc)
		t.Run(sc.Name, func(t *testing.T) {
			_, _, a := drainScenario(t, sc)
			_, _, b := drainScenario(t, sc)
			if len(a) != len(b) {
				t.Fatalf("runs produced %d vs %d records", len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("record %d differs: %+v vs %+v", i, a[i], b[i])
				}
			}
		})
	}
}

// TestScenarioOpenLoopShape: open-loop compositions carry real arrival
// stamps — timestamps inside a block span the batching cell rather than
// collapsing onto the block time, and flash scenarios visibly spike.
func TestScenarioOpenLoopShape(t *testing.T) {
	sc, err := LookupScenario("flash-crowd")
	if err != nil {
		t.Fatal(err)
	}
	_, _, recs := drainScenario(t, sc)
	distinct := map[int64]bool{}
	perBlock := map[uint32]int{}
	for _, r := range recs {
		distinct[r.Time] = true
		perBlock[r.Block]++
	}
	if len(distinct) < len(perBlock) {
		t.Errorf("only %d distinct arrival stamps over %d blocks: records collapsed onto block times",
			len(distinct), len(perBlock))
	}
	min, max := 1<<62, 0
	for _, n := range perBlock {
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	if max < 4*min {
		t.Errorf("flash spike invisible: min %d, max %d records per block", min, max)
	}
}

// TestStreamReadAfterEOF: the stream keeps returning io.EOF.
func TestStreamReadAfterEOF(t *testing.T) {
	sc, err := LookupScenario("transfer-steady")
	if err != nil {
		t.Fatal(err)
	}
	sc = shortScenario(sc)
	gen, err := NewScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	s := gen.Stream()
	if _, _, err := trace.ReadAll(s); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(); err != io.EOF {
		t.Fatalf("Read after EOF = %v, want io.EOF", err)
	}
}
