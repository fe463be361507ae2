package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"nwids/internal/lp"
	"nwids/internal/topology"
	"nwids/internal/traffic"
)

// lpGolden pins one LP solve bit for bit: the pivot path (pivots,
// refactorizations, devex resets) and a SHA-256 over the IEEE-754 bits of
// the primal point and the duals. Any change to the arithmetic of the
// factorization, the pricing or the ratio test moves at least one of them.
type lpGolden struct {
	pivots, refacts, resets int
	digest                  string
}

func solutionGolden(sol *lp.Solution) lpGolden {
	h := sha256.New()
	var buf [8]byte
	for _, vs := range [][]float64{sol.X, sol.Dual} {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return lpGolden{
		pivots:  sol.Stats.Pivots(),
		refacts: sol.Stats.Refactorizations,
		resets:  sol.Stats.DevexResets,
		digest:  hex.EncodeToString(h.Sum(nil)),
	}
}

func checkGolden(t *testing.T, name string, sol *lp.Solution, want lpGolden) {
	t.Helper()
	if sol.Status != lp.Optimal {
		t.Fatalf("%s: status %v", name, sol.Status)
	}
	if got := solutionGolden(sol); got != want {
		t.Errorf("%s: got %+v, want %+v", name, got, want)
	}
}

func gravityScenario(t *testing.T, name string) *Scenario {
	t.Helper()
	g := topology.ByName(name)
	if g == nil {
		t.Fatalf("unknown topology %s", name)
	}
	return NewScenario(g, traffic.GravityDefault(g), ScenarioOptions{})
}

// coldReplicationSolve runs the LP exactly as SolveReplication does and
// returns the raw solution.
func coldReplicationSolve(t *testing.T, s *Scenario, cfg ReplicationConfig) *lp.Solution {
	t.Helper()
	m, err := buildReplicationModel(s, cfg.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	opts := cfg.LP
	opts.CrashBasis = m.crash
	opts.AtUpper = append(opts.AtUpper, m.lam)
	return lp.Solve(m.prob, opts)
}

// The golden values below were recorded on the dense-scan factorization and
// the column-wise devex update; the sparse kernels must reproduce them.

func TestLPGoldenColdReplication(t *testing.T) {
	cfg := ReplicationConfig{Mirror: MirrorDCOnly, MaxLinkLoad: 0.4, DCCapacity: 10}
	for _, tc := range []struct {
		topo string
		want lpGolden
	}{
		{"Geant", lpGolden{318, 5, 4, "7629832294e059627f73635cf6e5f5819a8488d97268414793e52403e0541ca8"}},
		{"TiNet", lpGolden{1610, 18, 36, "b85d696d35d2eeb2b835801bc4d819a1caa5e910c63dd891cb3dd93a46787506"}},
	} {
		sol := coldReplicationSolve(t, gravityScenario(t, tc.topo), cfg)
		checkGolden(t, tc.topo+" cold replication", sol, tc.want)
	}
}

func TestLPGoldenAggregation(t *testing.T) {
	s := gravityScenario(t, "Geant")
	m := buildAggregationModel(s, AggregationConfig{Beta: 1})
	opts := lp.Options{CrashBasis: m.crash, AtUpper: []lp.Var{m.lam}}
	checkGolden(t, "Geant aggregation", lp.Solve(m.prob, opts),
		lpGolden{150, 3, 1, "a869f8fb373925e7bbda62ae1a4fcc751336896fb9c2a35dc1c4a43cd07618fd"})
}

func TestLPGoldenWarmReplication(t *testing.T) {
	s := gravityScenario(t, "Geant")
	rs, err := NewReplicationSolver(s, ReplicationConfig{Mirror: MirrorDCOnly, MaxLinkLoad: 0.4, DCCapacity: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Solve(); err != nil {
		t.Fatal(err)
	}
	rs.SetMaxLinkLoad(0.2)
	sol := lp.Solve(rs.m.prob, lp.Options{WarmStart: rs.basis})
	if sol.Stats.WarmStartHits != 1 {
		t.Fatalf("warm re-solve did not install the chained basis")
	}
	checkGolden(t, "Geant warm replication", sol,
		lpGolden{222, 4, 2, "321d105dfca27738078039a08fbebd4dfcb53c220d7094c7de79e6bc317547f0"})
}
