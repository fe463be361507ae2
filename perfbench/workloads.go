package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strconv"
	"time"

	"nwids"
	"nwids/internal/controller"
	"nwids/internal/core"
	"nwids/internal/emulation"
	"nwids/internal/obs"
	"nwids/internal/topology"
)

// workload is one named benchmark input. Every workload is a closed-loop
// batch replay: the program's own driver injects the next packet as soon
// as the previous dispatch returns, so throughput is work per second at
// the stated size. The one-line reason each workload exists is its "why"
// in BENCHMARK.json.
type workload struct {
	Name         string
	Topology     string
	PayloadBytes int
	// Sessions is the replay's total session count, or the drift run's
	// sessions per phase.
	Sessions int
	Workers  int
	Live     bool
	// DriftPreset selects an emulation.DriftScenario preset; empty for the
	// emulation.Run replays.
	DriftPreset string
	// SetupReps is how many times a --trace 0 run repeats set-up; setup_s
	// is the median.
	SetupReps int
	// Proposals is the number of controller re-solves the traced run's
	// controller pass makes (each is paired with a cold solve).
	Proposals int
	// DefaultSeed is the seed to quote results on; HeldOutSeed is kept for
	// re-checking a claim on a seed it was not tuned on.
	DefaultSeed, HeldOutSeed int64
}

const (
	packetsPerSession = 6
	defaultHashSeed   = 1
	// replayMalicious and driftMalicious are the programs' default planted-
	// signature fractions, set explicitly so the isolated passes generate
	// the same trace the run does.
	replayMalicious = 0.02
	driftMalicious  = 0.05
	driftPayload    = 256
)

var workloads = []*workload{
	{Name: ntt, Topology: "NTT", PayloadBytes: 64, Sessions: 40000, Workers: 1,
		SetupReps: 3, Proposals: 2, DefaultSeed: 1, HeldOutSeed: 1000},
	{Name: geant, Topology: "Geant", PayloadBytes: 1500, Sessions: 12000, Workers: 2, Live: true,
		SetupReps: 21, Proposals: 30, DefaultSeed: 1, HeldOutSeed: 1000},
	{Name: drift, Topology: "Geant", PayloadBytes: driftPayload, Sessions: 3000, Workers: 1, DriftPreset: "diurnal",
		SetupReps: 31, Proposals: 30, DefaultSeed: 1, HeldOutSeed: 1000},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// replayReplication is the replication solve `emulate -dc 8 -mll 0.4` runs:
// DC-only mirroring, DC capacity 8, link budget 0.4.
var replayReplication = core.ReplicationConfig{MaxLinkLoad: 0.4, DCCapacity: 8, Mirror: core.MirrorDCOnly}

// prepared is a workload after set-up: the replay's solved assignment, or
// the drift run's configuration.
type prepared struct {
	graph  *topology.Graph
	assign *core.Assignment
	drift  *emulation.DriftConfig
}

// setup builds what the run call needs. tr, when non-nil, is handed to the
// replication solve so its span tree lands in the trace; parent receives a
// span around every call into a layer (both may be nil).
func (w *workload) setup(tr *obs.Tracer, parent *obs.TraceSpan) (*prepared, error) {
	sp := parent.Child("topology.ByName")
	g := topology.ByName(w.Topology)
	sp.End()
	if g == nil {
		return nil, fmt.Errorf("unknown topology %q", w.Topology)
	}
	p := &prepared{graph: g}
	if w.DriftPreset != "" {
		sp = parent.Child("emulation.DriftScenario")
		dc, err := emulation.DriftScenario(w.DriftPreset, g, w.Sessions)
		sp.End()
		if err != nil {
			return nil, err
		}
		p.drift = dc
		return p, nil
	}
	sp = parent.Child("core.NewScenario")
	sc := nwids.DefaultScenario(g)
	sp.End()
	rc := replayReplication
	rc.Trace = tr
	sp = parent.Child("core.SolveReplication")
	a, err := core.SolveReplication(sc, rc)
	sp.End()
	if err != nil {
		return nil, err
	}
	p.assign = a
	return p, nil
}

// replayConfig is the emulation.Config the emulate binary would build for
// this workload: a fresh registry, virtual clock and warn-level logger per
// run, as cmd/emulate has.
func (w *workload) replayConfig(p *prepared, genSeed int64, hashSeed uint32) emulation.Config {
	vc := obs.NewVirtualClock(time.Unix(0, 0).UTC())
	return emulation.Config{
		Assignment:        p.assign,
		HashSeed:          hashSeed,
		GenSeed:           genSeed,
		TotalSessions:     w.Sessions,
		PacketsPerSession: packetsPerSession,
		PayloadBytes:      w.PayloadBytes,
		MaliciousFraction: replayMalicious,
		Live:              w.Live,
		Workers:           w.Workers,
		Obs:               obs.NewRegistryWithClock(vc),
		Log:               obs.NewLogger(io.Discard, obs.LevelWarn),
		Clock:             vc,
	}
}

// driftConfig is the DriftConfig cmd/nidsctl -watch would run for this
// workload, with the churn-minimizing planner and the given seeds.
func (w *workload) driftConfig(p *prepared, genSeed int64, hashSeed uint32) emulation.DriftConfig {
	cfg := *p.drift
	cfg.Planner = controller.ChurnMinPlanner{}
	cfg.GenSeed = genSeed
	cfg.HashSeed = hashSeed
	cfg.PacketsPerSession = packetsPerSession
	cfg.PayloadBytes = driftPayload
	cfg.MaliciousFraction = driftMalicious
	cfg.Obs = obs.NewRegistry()
	cfg.Log = obs.NewLogger(io.Discard, obs.LevelWarn)
	cfg.Clock = obs.NewVirtualClock(time.Unix(0, 0).UTC())
	return cfg
}

// outcome is one checked run call.
type outcome struct {
	Sessions int      `json:"sessions"`
	Packets  int      `json:"packets"`
	Failed   int      `json:"failed"`
	Digest   string   `json:"digest"`
	Problems []string `json:"problems,omitempty"`
	// MaxWorkShare (replays) and MovedFrac (drift) are the run's outcome
	// measures.
	MaxWorkShare float64 `json:"max_work_share"`
	MovedFrac    float64 `json:"moved_frac"`

	replay *emulation.Result
	drift  *emulation.DriftResult
}

// nominalSessions is the session count a run attempts, used to charge a
// run that errors out.
func (w *workload) nominalSessions(p *prepared) int {
	if p.drift != nil {
		return w.Sessions * len(p.drift.Phases)
	}
	return w.Sessions
}

// run makes the workload's one call into the program — emulation.Run or
// emulation.RunDrift — and checks its outputs against want (the recorded
// digest for the seed, or "" when none is recorded). It returns the wall
// time of the call alone.
func (w *workload) run(p *prepared, genSeed int64, hashSeed uint32, want string) (outcome, time.Duration) {
	if p.drift != nil {
		cfg := w.driftConfig(p, genSeed, hashSeed)
		start := time.Now()
		res, err := emulation.RunDrift(cfg)
		elapsed := time.Since(start)
		if err != nil {
			n := w.nominalSessions(p)
			return outcome{Sessions: n, Failed: n, Problems: []string{err.Error()}}, elapsed
		}
		return checkDrift(res, want), elapsed
	}
	cfg := w.replayConfig(p, genSeed, hashSeed)
	start := time.Now()
	res, err := emulation.Run(cfg)
	elapsed := time.Since(start)
	if err != nil {
		n := w.nominalSessions(p)
		return outcome{Sessions: n, Failed: n, Problems: []string{err.Error()}}, elapsed
	}
	return checkReplay(res, want), elapsed
}

// replayDigest hashes a replay's deterministic per-node outputs.
func replayDigest(res *emulation.Result) string {
	h := sha256.New()
	for _, n := range res.Nodes {
		fmt.Fprintf(h, "%d %d %d %d %d %d\n", n.Node, n.WorkUnits, n.Packets, n.Processed, n.Replicated, n.Alerts)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// driftDigest hashes a drift run's reconfiguration list, sessions moved and
// fleet counters.
func driftDigest(res *emulation.DriftResult) string {
	h := sha256.New()
	g := func(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
	for _, r := range res.Reconfigs {
		fmt.Fprintf(h, "%d %s %s %s %d %s %d %d\n", r.Epoch, r.Trigger, r.Planner,
			g(r.PlannedChurn), r.SessionsMoved, g(r.ExpectedMoved), r.SessionsRemaining, r.ClassesChanged)
	}
	c := res.Counters
	fmt.Fprintf(h, "moved %d\ncounters %d %d %d %d %d %d %d\n", res.SessionsMoved,
		c.Seen, c.Processed, c.Replicated, c.Skipped, c.NoClass, c.Dual, res.DriftEvents)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// checkReplay applies the replay correctness gate: every malicious session
// detected, no ownership errors, and the digest matching want when one is
// recorded. A digest mismatch fails every session of the run.
func checkReplay(res *emulation.Result, want string) outcome {
	o := outcome{
		Sessions: res.Sessions, Packets: res.Sessions * packetsPerSession,
		Digest: replayDigest(res), replay: res,
	}
	if total := res.TotalWork(); total > 0 {
		o.MaxWorkShare = float64(res.MaxWorkExDC()) / float64(total)
	}
	if missed := res.MaliciousSessions - res.DetectedSessions; missed != 0 {
		o.Failed += max(missed, -missed)
		o.Problems = append(o.Problems, fmt.Sprintf("detected %d of %d malicious sessions", res.DetectedSessions, res.MaliciousSessions))
	}
	if res.OwnershipErrors != 0 {
		o.Failed += res.OwnershipErrors
		o.Problems = append(o.Problems, fmt.Sprintf("%d ownership errors", res.OwnershipErrors))
	}
	return o.gateDigest(want)
}

// checkDrift applies the drift correctness gate: no missed detections, no
// ownership errors, reconciled counters, and the digest matching want when
// one is recorded. Unreconciled counters or a digest mismatch fail every
// session of the run.
func checkDrift(res *emulation.DriftResult, want string) outcome {
	o := outcome{
		Sessions: res.Sessions, Packets: res.Sessions * packetsPerSession,
		Digest: driftDigest(res), drift: res,
	}
	if res.Sessions > 0 {
		o.MovedFrac = float64(res.SessionsMoved) / float64(res.Sessions)
	}
	if res.Missed != 0 {
		o.Failed += res.Missed
		o.Problems = append(o.Problems, fmt.Sprintf("%d missed detections", res.Missed))
	}
	if res.OwnershipErrors != 0 {
		o.Failed += res.OwnershipErrors
		o.Problems = append(o.Problems, fmt.Sprintf("%d ownership errors", res.OwnershipErrors))
	}
	if !res.Reconciled {
		o.Failed = o.Sessions
		o.Problems = append(o.Problems, "shim counters do not reconcile")
	}
	return o.gateDigest(want)
}

func (o outcome) gateDigest(want string) outcome {
	if want != "" && o.Digest != want {
		o.Failed = o.Sessions
		o.Problems = append(o.Problems, fmt.Sprintf("digest %s, want %s", o.Digest, want))
	}
	if o.Failed > o.Sessions {
		o.Failed = o.Sessions
	}
	return o
}
