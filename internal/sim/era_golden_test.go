package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"ethpart/internal/workload"
)

// The pipeline refactor's contract: the era-based workload.Config path,
// re-expressed as one composition of the arrival/population/scenario
// layers, must produce byte-identical traces to the pre-pipeline
// generator. The hashes below were captured from the closed-loop
// generator immediately before the refactor; any drift in record content,
// order or count is a regression.

func goldenDate(y int, m time.Month, d int) time.Time {
	return time.Date(y, m, d, 0, 0, 0, 0, time.UTC)
}

func goldenEras() []workload.Era {
	return []workload.Era{
		{
			Name:  "growth",
			Start: goldenDate(2016, time.January, 1), End: goldenDate(2016, time.January, 11),
			TxPerDayStart: 2_000, TxPerDayEnd: 8_000, Kind: workload.GrowthExponential,
			NewAccountFrac: 0.3, DeploysPerDay: 10,
			Mix: workload.TxMix{Transfer: 0.6, Token: 0.15, Wallet: 0.1, Crowdsale: 0.05, Game: 0.05, Airdrop: 0.05},
		},
		{
			Name:  "attack",
			Start: goldenDate(2016, time.January, 11), End: goldenDate(2016, time.January, 16),
			TxPerDayStart: 30_000, TxPerDayEnd: 30_000, Kind: workload.GrowthLinear,
			NewAccountFrac: 0.1, DummyFrac: 0.8, DeploysPerDay: 2,
			Mix: workload.TxMix{Transfer: 0.15, Token: 0.02, Wallet: 0.01, Crowdsale: 0.01, Game: 0.005, Airdrop: 0.005},
		},
	}
}

// hashTrace digests every field of every record, in order.
func hashTrace(gt *GeneratedTrace) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) { binary.BigEndian.PutUint64(buf[:], v); h.Write(buf[:]) }
	for _, r := range gt.Records {
		put(uint64(r.Block))
		put(uint64(r.Time))
		put(uint64(r.Kind))
		put(r.From)
		put(r.To)
		var fb, tb uint64
		if r.FromContract {
			fb = 1
		}
		if r.ToContract {
			tb = 1
		}
		put(fb)
		put(tb)
		put(r.Value)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestEraPathMatchesPreRefactorGoldens(t *testing.T) {
	cases := []struct {
		name     string
		cfg      workload.Config
		records  int
		vertices int
		sha      string
	}{
		{
			name:     "plain",
			cfg:      workload.Config{Seed: 7, Scale: 0.05, Eras: goldenEras(), BlockInterval: time.Hour},
			records:  24664,
			vertices: 10092,
			sha:      "780755c93f5b1992b2597b503b73f8607a6a8d074035a3d6325d41a40e9445af",
		},
		{
			name: "communities",
			cfg: workload.Config{Seed: 11, Scale: 0.03, Eras: goldenEras(), BlockInterval: 2 * time.Hour,
				Communities: 3, CommunityLocality: 0.9},
			records:  14631,
			vertices: 6033,
			sha:      "947e3da4377512768bef87e0c7af16d8180b3f4ddf97c079da5622673be14ccb",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			gt, err := Generate(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkTrace(t, gt, tc.records, tc.vertices, tc.sha)
		})
	}
}

// TestScenarioLibraryGoldens pins every library scenario's stream at 24
// hours, default seed: the generator's fixed parameters (hot-set size,
// exchange hubs, bootstrap accounts, preferential-attachment probability,
// airdrop fan-out, diurnal period) reach each record through these.
func TestScenarioLibraryGoldens(t *testing.T) {
	cases := []struct {
		name     string
		records  int
		vertices int
		sha      string
	}{
		{"airdrop-storm", 11091, 2554, "9a453d8354a4b42ed33dfe3ef583e4988860341187bf9d3bafc701682eb8215b"},
		{"crud-diurnal", 3309, 89, "4c0fa5b8198ec81bea443b819bd14fb8d000d02396c9b1d41257d589c7fa8143"},
		{"diurnal-exchange", 3697, 128, "89d7067418bd7516380e7bc9c06d08f464fb599b1702e0ebf4b28025c7ecf773"},
		{"flash-crowd", 5435, 758, "9fab864e676424905c609daa744ad7f1a870284ba0e92392e8e59be67c7a91d3"},
		{"flash-nft-mint", 12835, 2266, "ec288c87081ce67c4700e298abed31764a760fb42f01b764f637f442fc1ca9de"},
		{"transfer-steady", 3158, 446, "cdd15edea99dc418191f740608d410df0f60bd5355794dd9691fd2bdf90e680e"},
	}
	if got, want := len(cases), len(workload.ScenarioNames()); got != want {
		t.Fatalf("%d golden rows for %d library scenarios", got, want)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc, err := workload.ResolveScenario(tc.name, "", 24, 0)
			if err != nil {
				t.Fatal(err)
			}
			gt, err := GenerateScenario(sc)
			if err != nil {
				t.Fatal(err)
			}
			checkTrace(t, gt, tc.records, tc.vertices, tc.sha)
		})
	}
}

func checkTrace(t *testing.T, gt *GeneratedTrace, records, vertices int, sha string) {
	t.Helper()
	if len(gt.Records) != records {
		t.Errorf("records = %d, want %d", len(gt.Records), records)
	}
	if gt.Registry.Len() != vertices {
		t.Errorf("vertices = %d, want %d", gt.Registry.Len(), vertices)
	}
	if got := hashTrace(gt); got != sha {
		t.Errorf("trace sha256 = %s, want %s", got, sha)
	}
}
