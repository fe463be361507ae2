package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"nwids/internal/controller"
	"nwids/internal/core"
	"nwids/internal/emulation"
	"nwids/internal/nids"
	"nwids/internal/obs"
	"nwids/internal/packet"
	"nwids/internal/shim"
)

// The traced run (--trace 1) makes the workload's run call once untraced
// and once inside a wall-clock span, then times each layer's public
// functions from outside on the same generated inputs. It never sets
// emulation.Config.Trace: per-packet spans would time the span machinery
// rather than the layers. The only program spans it records are the
// replication solve's, through ReplicationConfig.Trace.

const (
	tickSessions   = emulation.DefaultTickSessions
	driftTick      = 16 // emulation.DriftConfig's default TickSessions
	driftWatched   = 8  // emulation.DriftConfig's default WatchClasses
	hashBatch      = 64
	processBatch   = 256
	scanBatch      = 64
	tunnelBatch    = 64
	tunnelReps     = 5
	tunnelFallback = 8192
	compileReps    = 11
	statsReps      = 31
	obsBatches     = 200
	pollCalls      = 600
	ticksPerPhase  = 16
)

// layerRun carries one traced run's state between passes.
type layerRun struct {
	w        *workload
	p        *prepared
	seed     int64
	hashSeed uint32
	tr       *obs.Tracer
	root     *obs.TraceSpan
	rep      *report
	run      outcome
	runS     float64
}

func (l *layerRun) set(name string, v float64) {
	for _, d := range perLayer {
		if d.Name == name {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			l.rep.Metrics[name] = metricValue{v, d.Unit}
			return
		}
	}
	panic("perfbench: metric not in the catalog: " + name)
}

func (l *layerRun) setDist(name string, d dist) {
	l.rep.Dists[name] = d
	l.set(name, d.Median)
}

// tracedRun is the --trace 1 run.
func tracedRun(w *workload, seed int64, hashSeed uint32, outDir string) (*report, error) {
	rep := newReport(w, seed, hashSeed, 1)
	want, checked := recordedDigest(w.Name, seed, hashSeed)
	rep.Checked = checked

	// Untraced baseline in this process, for the tracing overhead: set-up,
	// a warm-up call, then (after the traced call) one more untraced call.
	runtime.GC()
	start := time.Now()
	p0, err := w.setup(nil, nil)
	setupPlain := time.Since(start).Seconds()
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	runtime.GC()
	warm, _ := w.run(p0, seed, hashSeed, want) // the first call grows the heap; the overhead compares later calls
	rep.add(warm)

	tr := obs.NewTracer(nil)
	root := tr.StartSpan("perfbench").Arg("workload", w.Name).Arg("seed", seed)
	runtime.GC()
	sp := root.Child("perfbench.setup")
	start = time.Now()
	p, err := w.setup(tr, sp)
	setupTraced := time.Since(start).Seconds()
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("traced setup: %w", err)
	}

	call := "emulation.Run"
	if p.drift != nil {
		call = "emulation.RunDrift"
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sp = root.Child(call)
	o, traced := w.run(p, seed, hashSeed, want)
	sp.End()
	runtime.ReadMemStats(&after)
	rep.add(o) // also checks the traced call reproduces the untraced digest
	runtime.GC()
	o0, plain := w.run(p0, seed, hashSeed, want)
	rep.add(o0)

	l := &layerRun{w: w, p: p, seed: seed, hashSeed: hashSeed, tr: tr, root: root, rep: rep, run: o, runS: traced.Seconds()}
	pkts := float64(o.Packets)
	l.set("emulation.run_s", l.runS)
	l.set("emulation.allocs_per_pkt", float64(after.Mallocs-before.Mallocs)/pkts)
	l.set("emulation.bytes_per_pkt", float64(after.TotalAlloc-before.TotalAlloc)/pkts)
	l.set("trace.pps_overhead", 1-plain.Seconds()/traced.Seconds())
	l.set("trace.setup_overhead", setupTraced/setupPlain-1)
	rep.Info["untraced.pps"] = metricValue{float64(o0.Packets) / plain.Seconds(), "1/s"}
	rep.Info["traced.pps"] = metricValue{pkts / traced.Seconds(), "1/s"}
	rep.Info["untraced.setup_s"] = metricValue{setupPlain, "s"}
	rep.Info["traced.setup_s"] = metricValue{setupTraced, "s"}

	if err := l.passes(); err != nil {
		return nil, err
	}
	root.End()

	spans := tr.Spans()
	if err := l.solveSpans(spans); err != nil {
		return nil, err
	}
	rep.spans = spans
	rep.SelfTime = selfTable(spans)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	rep.TraceOut = filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", w.Name, seed))
	if err := tr.WriteChromeTraceFile(rep.TraceOut); err != nil {
		return nil, err
	}
	rep.finish()
	return rep, nil
}

// passes runs every isolated layer pass on the workload's generated inputs.
func (l *layerRun) passes() error {
	var (
		sessions []packet.Session
		gen      time.Duration
		sc       *core.Scenario
		dsc      *emulation.DriftConfig
		rc       core.ReplicationConfig
	)
	sp := l.root.Child("pass.packet")
	if l.p.drift != nil {
		cfg := l.w.driftConfig(l.p, l.seed, l.hashSeed)
		dsc, rc, sc = &cfg, cfg.Replication, cfg.Base
		inner := sp.Child("packet.Generator.Matrix")
		start := time.Now()
		sessions = driftTrace(cfg)
		gen = time.Since(start)
		inner.End()
	} else {
		cfg := l.w.replayConfig(l.p, l.seed, l.hashSeed)
		sc, rc = l.p.assign.Scenario, replayReplication
		inner := sp.Child("emulation.GenerateWorkload")
		start := time.Now()
		sessions = emulation.GenerateWorkload(cfg)
		gen = time.Since(start)
		inner.End()
		var err error
		if dsc, err = emulation.DriftScenario("diurnal", l.p.graph, 1); err != nil {
			return err
		}
	}
	sp.End()
	l.set("packet.generate_s", gen.Seconds())
	l.set("packet.generate_share", gen.Seconds()/l.runS)

	// The drift run's replication solves happen inside the controller; a
	// traced cold solve of the same base problem gives its LP breakdown.
	if l.p.drift != nil {
		sp = l.root.Child("pass.lp")
		inner := sp.Child("core.SolveReplication")
		traced := rc
		traced.Trace = l.tr
		a, err := core.SolveReplication(sc, traced)
		inner.End()
		sp.End()
		if err != nil {
			return err
		}
		l.lpStats(a)
	} else {
		l.lpStats(l.p.assign)
	}

	ctl, err := l.controllerPass(dsc, rc)
	if err != nil {
		return err
	}

	// Shim: compile, hash and per-flow dispatch over the run's sessions on
	// the initial configuration (the replay's compiled assignment, or the
	// drift controller's epoch 0), then DecideAllInto per packet under the
	// drift run's merged transition configs (clean configs on the replays).
	sp = l.root.Child("pass.shim")
	assign, flowCfgs, allCfgs := ctl.initAssign, ctl.initial, ctl.merged
	if l.p.drift == nil {
		assign = l.p.assign
		flowCfgs = shim.CompileConfigs(assign, l.hashSeed)
		allCfgs = flowCfgs
	}
	compileT := newBatchTimer(time.Millisecond)
	inner := sp.Child("shim.CompileConfigs")
	for i := 0; i < compileReps; i++ {
		compileT.begin()
		shim.CompileConfigs(assign, l.hashSeed)
		compileT.end(1)
	}
	inner.End()
	l.setDist("shim.compile_ms", compileT.dist())
	fp := flowPass(sp, sessions, sc, shimsOf(flowCfgs), l.hashSeed)
	l.setDist("shim.hash_ns", fp.hashT.dist())
	l.setDist("shim.decide_flow_ns", fp.flowT.dist())
	allT, all := decideAllPass(sp, sessions, sc, shimsOf(allCfgs))
	l.setDist("shim.decide_all_ns", allT.dist())
	sp.End()
	if l.run.drift != nil {
		c := l.run.drift.Counters
		l.set("shim.dual_share", float64(c.Dual)/float64(c.Seen))
		l.set("shim.replicate_share", float64(c.Replicated)/float64(c.Processed+c.Replicated))
	} else {
		var proc, repl uint64
		for _, n := range l.run.replay.Nodes {
			proc += n.Processed
			repl += n.Replicated
		}
		l.set("shim.dual_share", float64(all.Dual)/float64(all.Seen))
		l.set("shim.replicate_share", float64(repl)/float64(proc+repl))
	}

	// Tunnel: the run's replicated packets over real loopback tunnels; a
	// workload that replicates nothing sends its first packets instead.
	sp = l.root.Child("pass.tunnel")
	pairs := fp.mirrored
	if len(pairs) == 0 {
		pairs = map[[2]int][]packet.Packet{{0, 0}: firstPackets(sessions, tunnelFallback)}
	}
	tunnelT, mb, err := tunnelPass(sp, pairs)
	sp.End()
	if err != nil {
		return err
	}
	l.setDist("shim.tunnel_ns_per_pkt", tunnelT.dist())
	l.set("shim.tunnel_mb", mb)

	// NIDS: fresh engines fed each node's packets, the matcher alone over
	// the trace, and Stats on the engine holding the largest flow table.
	sp = l.root.Child("pass.nids")
	np := nidsPass(sp, fp.nodePkts, sessions)
	sp.End()
	l.setDist("nids.process_ns_per_pkt", np.procT.dist())
	l.setDist("nids.scan_ns_per_byte", np.scanT.dist())
	l.setDist("nids.stats_us", np.statsT.dist())
	l.set("nids.flows", float64(np.flows))
	l.set("nids.allocs_per_pkt", np.allocsPerPkt)

	sp = l.root.Child("pass.obs")
	growPolls := 0
	if l.p.drift == nil {
		growPolls = int(math.Ceil(float64(len(sessions)) / tickSessions))
	}
	recordT, pollT, advanceT, growS := obsPass(sp, l.seed, growPolls)
	sp.End()
	l.setDist("obs.record_ns", recordT.dist())
	l.setDist("obs.poll_us", pollT.dist())
	l.setDist("obs.advance_ns", advanceT.dist())

	rec, adv := recordT.dist().Median*1e-9, advanceT.dist().Median*1e-9
	var layers float64
	if d := l.run.drift; d != nil {
		// RunDrift: the trace, one DecideAllInto per shim visit, the oracle
		// plus fleet engines, the controller's solve/pushes and drift polls,
		// class-series records and the virtual clock.
		c := d.Counters
		polls := float64(d.Sessions / driftTick)
		actions := float64(c.Processed + c.Replicated)
		layers = gen.Seconds() + allT.dist().Median*1e-9*float64(c.Seen) +
			np.procT.dist().Median*1e-9*(float64(l.run.Packets)+actions) +
			ctl.newS + float64(len(d.Reconfigs))*(ctl.propose.dist().Median+ctl.confirm.dist().Median)*1e-3 +
			polls*(ctl.poll.dist().Median*1e-6+driftWatched*rec) +
			adv*(float64(l.run.Packets)+float64(c.Seen)+actions)
		l.set("emulation.max_work_share", np.maxShare)
		l.set("controller.moved_frac", l.run.MovedFrac)
		l.set("controller.reconfigs", float64(len(d.Reconfigs)))
		l.set("controller.drift_events", float64(d.DriftEvents))
	} else {
		// Run: the trace, hash + DecideFlow per session, engine work, the
		// per-tick Stats/record/poll telemetry, the virtual clock, and —
		// when live — the tunnels.
		nNIDS := l.p.assign.NumNIDS()
		ticks := float64(growPolls)
		classes := map[[2]int]bool{}
		for _, cl := range sc.Classes {
			classes[[2]int{cl.Src, cl.Dst}] = true
		}
		layers = gen.Seconds() + fp.hashT.total.Seconds() + fp.flowT.total.Seconds() + np.procT.total.Seconds() +
			ticks*np.statsAllS/2 + // flow tables grow through the run: on average half the final Stats walk
			ticks*float64(2*nNIDS+len(classes))*rec + float64(nNIDS)*growS + float64(fp.advances)*adv
		if l.w.Live {
			layers += tunnelT.dist().Median * 1e-9 * float64(fp.replicated)
		}
		l.set("emulation.max_work_share", l.run.MaxWorkShare)
		l.set("controller.moved_frac", 0) // a replay never reconfigures
		l.set("controller.reconfigs", float64(ctl.confirmed))
		l.set("controller.drift_events", float64(ctl.fired))
	}
	l.set("emulation.self_s", l.runS-layers)
	return nil
}

// lpStats reports the solve's LP counters (timings come from its spans).
func (l *layerRun) lpStats(a *core.Assignment) {
	st := a.LPStats
	l.set("lp.pivots", float64(st.Pivots()))
	l.set("lp.refactorizations", float64(st.Refactorizations))
	if st.Pivots() > 0 {
		l.set("lp.degenerate_share", float64(st.DegenerateSteps)/float64(st.Pivots()))
		l.set("lp.ns_per_pivot", float64((st.Phase1Time+st.Phase2Time).Nanoseconds())/float64(st.Pivots()))
	} else {
		l.set("lp.degenerate_share", 0)
		l.set("lp.ns_per_pivot", 0)
	}
}

// solveSpans reads the program's replication.solve span tree (the traced
// set-up solve of a replay, or pass.lp's solve on drift).
func (l *layerRun) solveSpans(spans []obs.SpanRecord) error {
	var solveID uint64
	for _, s := range spans {
		if s.Name == "replication.solve" {
			if solveID != 0 {
				return fmt.Errorf("more than one replication.solve span")
			}
			solveID = s.ID
		}
	}
	if solveID == 0 {
		return fmt.Errorf("no replication.solve span recorded")
	}
	parent := map[uint64]uint64{}
	for _, s := range spans {
		parent[s.ID] = s.Parent
	}
	under := func(id uint64) bool {
		for ; id != 0; id = parent[id] {
			if id == solveID {
				return true
			}
		}
		return false
	}
	sum := map[string]float64{}
	for _, s := range spans {
		if under(s.ID) {
			sum[s.Name] += s.End.Sub(s.Start).Seconds()
		}
	}
	l.set("core.build_s", sum["model.build"])
	l.set("lp.phase1_s", sum["lp.phase1"])
	l.set("lp.phase2_s", sum["lp.phase2"])
	l.set("core.extract_s", sum["extract"])
	return nil
}

// driftTrace regenerates the trace RunDrift replays: one generator, each
// phase's matrix scaled to its session count, phases in order.
func driftTrace(cfg emulation.DriftConfig) []packet.Session {
	rules := cfg.Rules
	if rules == nil {
		rules = nids.DefaultRules()
	}
	gen := packet.NewGenerator(packet.GeneratorConfig{
		PacketsPerSession: cfg.PacketsPerSession,
		PayloadBytes:      cfg.PayloadBytes,
		MaliciousFraction: cfg.MaliciousFraction,
		Signatures:        signatures(rules),
	}, cfg.GenSeed)
	var trace []packet.Session
	for _, ph := range cfg.Phases {
		trace = append(trace, gen.Matrix(sessionCounts(cfg.Base.WithMatrix(ph.Matrix), ph.Sessions))...)
	}
	return trace
}

// sessionCounts scales a scenario's class volumes to total sessions with at
// least one per class, as the emulation's generator does.
func sessionCounts(sc *core.Scenario, total int) [][]int {
	n := sc.Graph.NumNodes()
	counts := make([][]int, n)
	for i := range counts {
		counts[i] = make([]int, n)
	}
	tot := sc.TotalSessions()
	if tot == 0 {
		return counts
	}
	for _, cl := range sc.Classes {
		counts[cl.Src][cl.Dst] = max(1, int(math.Round(cl.Sessions/tot*float64(total))))
	}
	return counts
}

// signatures are the patterns the emulation plants: textual ones of at
// least six bytes.
func signatures(rules []nids.Rule) [][]byte {
	var out [][]byte
	for _, r := range rules {
		if len(r.Pattern) >= 6 {
			out = append(out, r.Pattern)
		}
	}
	return out
}

func firstPackets(sessions []packet.Session, n int) []packet.Packet {
	var out []packet.Packet
	for _, s := range sessions {
		for _, p := range s.Packets {
			if len(out) == n {
				return out
			}
			out = append(out, p)
		}
	}
	return out
}

// shimsOf builds one shim per configured node, indexed by node.
func shimsOf(cfgs map[int]*shim.Config) []*shim.Shim {
	n := 0
	for node := range cfgs {
		n = max(n, node+1)
	}
	out := make([]*shim.Shim, n)
	for node, c := range cfgs {
		out[node] = shim.New(c)
	}
	return out
}

// flowResult is the shim pass's timing plus the per-node packet lists the
// decisions imply, in the order each node's engine sees them in the run.
type flowResult struct {
	hashT, flowT *batchTimer
	nodePkts     map[int][]packet.Packet
	mirrored     map[[2]int][]packet.Packet // (replicator, mirror) → packets
	replicated   int
	advances     int // virtual-clock advances Run makes: ingress, dispatch, action
}

// flowPass times HashTuple per session and DecideFlow per session and path
// node, as Run dispatches, then (untimed) routes each session's packets to
// the nodes its decisions name.
func flowPass(parent *obs.TraceSpan, sessions []packet.Session, sc *core.Scenario, shims []*shim.Shim, hashSeed uint32) flowResult {
	r := flowResult{
		hashT: newBatchTimer(time.Nanosecond), flowT: newBatchTimer(time.Nanosecond),
		nodePkts: map[int][]packet.Packet{}, mirrored: map[[2]int][]packet.Packet{},
	}
	hashes := make([]uint64, len(sessions))
	sp := parent.Child("shim.HashTuple")
	for lo := 0; lo < len(sessions); lo += hashBatch {
		hi := min(lo+hashBatch, len(sessions))
		r.hashT.begin()
		for i := lo; i < hi; i++ {
			hashes[i] = shim.HashTuple(sessions[i].Tuple, hashSeed)
		}
		r.hashT.end(hi - lo)
	}
	sp.End()

	shimAt := func(node int) *shim.Shim {
		if node < len(shims) {
			return shims[node]
		}
		return nil
	}
	// Session i's decisions are decs[offs[i]:offs[i+1]], one per path node
	// with a shim; decs is sized up front so the timed loop never grows it.
	paths := make([][]int, len(sessions))
	visits := 0
	for i, s := range sessions {
		paths[i] = sc.Routing.Path(s.SrcPoP, s.DstPoP).Nodes
		visits += len(paths[i])
	}
	decs := make([]shim.Decision, 0, visits)
	offs := make([]int, len(sessions)+1)
	sp = parent.Child("shim.DecideFlow")
	for lo := 0; lo < len(sessions); lo += hashBatch {
		hi := min(lo+hashBatch, len(sessions))
		before := len(decs)
		r.flowT.begin()
		for i := lo; i < hi; i++ {
			s := &sessions[i]
			for _, node := range paths[i] {
				if sh := shimAt(node); sh != nil {
					decs = append(decs, sh.DecideFlow(s.Packets[0], hashes[i], len(s.Packets)))
				}
			}
			offs[i+1] = len(decs)
		}
		r.flowT.end(len(decs) - before)
	}
	sp.End()

	sp = parent.Child("perfbench.route")
	for i, s := range sessions {
		actions := 0
		nodes := paths[i]
		di := offs[i]
		for _, node := range nodes {
			if shimAt(node) == nil {
				continue
			}
			d := decs[di]
			di++
			switch d.Act {
			case shim.Process:
				r.nodePkts[node] = append(r.nodePkts[node], s.Packets...)
				actions++
			case shim.Replicate:
				r.nodePkts[d.Mirror] = append(r.nodePkts[d.Mirror], s.Packets...)
				key := [2]int{node, d.Mirror}
				r.mirrored[key] = append(r.mirrored[key], s.Packets...)
				r.replicated += len(s.Packets)
				actions++
			}
		}
		r.advances += len(s.Packets) * (1 + len(nodes) + actions)
	}
	sp.End()
	return r
}

// decideAllPass times DecideAllInto per packet and shim on its path (one
// sample per session) and returns the shims' summed counters.
func decideAllPass(parent *obs.TraceSpan, sessions []packet.Session, sc *core.Scenario, shims []*shim.Shim) (*batchTimer, shim.Counters) {
	t := newBatchTimer(time.Nanosecond)
	var buf []shim.Decision
	sp := parent.Child("shim.DecideAllInto")
	for i := range sessions {
		s := &sessions[i]
		nodes := sc.Routing.Path(s.SrcPoP, s.DstPoP).Nodes
		calls := 0
		t.begin()
		for _, p := range s.Packets {
			for _, node := range nodes {
				if node < len(shims) && shims[node] != nil {
					buf = shims[node].DecideAllInto(p, buf[:0])
					calls++
				}
			}
		}
		t.end(calls)
	}
	sp.End()
	var c shim.Counters
	for _, sh := range shims {
		if sh != nil {
			c = c.Add(sh.Counters)
		}
	}
	return t, c
}

// tunnelPass sends each (replicator, mirror) pair's packets over a real
// loopback tunnel with SendBatch, flushes, and waits until the Serve
// handlers have every packet; one sample (ns per packet) per repetition.
func tunnelPass(parent *obs.TraceSpan, pairs map[[2]int][]packet.Packet) (*batchTimer, float64, error) {
	keys := make([][2]int, 0, len(pairs))
	total, bytes := 0, 0
	for k, pkts := range pairs {
		keys = append(keys, k)
		total += len(pkts)
		for _, p := range pkts {
			bytes += len(p.Payload)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})

	var got, want atomic.Int64
	done := make(chan struct{}, 1)
	handler := func(packet.Packet) {
		if got.Add(1) == want.Load() {
			done <- struct{}{}
		}
	}
	servers := map[int]*shim.Server{}
	tunnels := map[[2]int]*shim.Tunnel{}
	defer func() {
		for _, k := range keys {
			if t := tunnels[k]; t != nil {
				t.Close()
			}
		}
		for _, s := range servers {
			s.Close()
		}
	}()
	for _, k := range keys {
		srv := servers[k[1]]
		if srv == nil {
			var err error
			if srv, err = shim.Serve("127.0.0.1:0", handler); err != nil {
				return nil, 0, err
			}
			servers[k[1]] = srv
		}
		t, err := shim.Dial(srv.Addr())
		if err != nil {
			return nil, 0, err
		}
		tunnels[k] = t
	}

	t := newBatchTimer(time.Nanosecond)
	for rep := 0; rep < tunnelReps; rep++ {
		want.Store(int64((rep + 1) * total))
		sp := parent.Child("shim.Tunnel.SendBatch")
		t.begin()
		for _, k := range keys {
			pkts := pairs[k]
			for lo := 0; lo < len(pkts); lo += tunnelBatch {
				if err := tunnels[k].SendBatch(pkts[lo:min(lo+tunnelBatch, len(pkts))]); err != nil {
					return nil, 0, err
				}
			}
		}
		for _, k := range keys {
			if err := tunnels[k].Flush(); err != nil {
				return nil, 0, err
			}
		}
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			return nil, 0, fmt.Errorf("tunnel pass: %d of %d packets delivered", got.Load(), want.Load())
		}
		t.end(total)
		sp.End()
	}
	return t, float64(bytes) / 1e6, nil
}

// nidsResult is the NIDS pass's measurements.
type nidsResult struct {
	procT, scanT, statsT *batchTimer
	statsAllS            float64 // one Stats call on every engine, seconds
	flows                int
	allocsPerPkt         float64
	maxShare             float64 // largest node's share of work units
}

// nidsPass feeds fresh engines each node's packets (batches of
// processBatch), scans the whole trace with the matcher alone, and times
// Stats on the engine holding the largest final flow table.
func nidsPass(parent *obs.TraceSpan, nodePkts map[int][]packet.Packet, sessions []packet.Session) nidsResult {
	r := nidsResult{
		procT: newBatchTimer(time.Nanosecond), scanT: newBatchTimer(time.Nanosecond),
		statsT: newBatchTimer(time.Microsecond),
	}
	rules := nids.DefaultRules()
	nodes := make([]int, 0, len(nodePkts))
	for n := range nodePkts {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	engines := make([]*nids.Engine, len(nodes))
	for i := range engines {
		engines[i] = nids.NewEngine(rules, 20)
	}

	var before, after runtime.MemStats
	pkts := 0
	runtime.GC()
	runtime.ReadMemStats(&before)
	sp := parent.Child("nids.Engine.ProcessPacket")
	for i, n := range nodes {
		e, list := engines[i], nodePkts[n]
		for lo := 0; lo < len(list); lo += processBatch {
			hi := min(lo+processBatch, len(list))
			r.procT.begin()
			for _, p := range list[lo:hi] {
				e.ProcessPacket(p)
			}
			r.procT.end(hi - lo)
		}
		pkts += len(list)
	}
	sp.End()
	runtime.ReadMemStats(&after)
	r.allocsPerPkt = float64(after.Mallocs-before.Mallocs) / float64(max(pkts, 1))

	m := nids.NewMatcher(nids.Patterns(rules))
	var buf []nids.Match
	sp = parent.Child("nids.Matcher.ScanStreamInto")
	for lo := 0; lo < len(sessions); lo += scanBatch {
		hi := min(lo+scanBatch, len(sessions))
		n := 0
		r.scanT.begin()
		for _, s := range sessions[lo:hi] {
			for _, p := range s.Packets {
				_, buf = m.ScanStreamInto(0, p.Payload, buf[:0])
				n += len(p.Payload)
			}
		}
		r.scanT.end(n)
	}
	sp.End()

	var biggest *nids.Engine
	var work, total uint64
	for _, e := range engines {
		r.flows += e.ActiveFlows()
		if biggest == nil || e.ActiveFlows() > biggest.ActiveFlows() {
			biggest = e
		}
		w := e.Stats().WorkUnits()
		total += w
		work = max(work, w)
	}
	if total > 0 {
		r.maxShare = float64(work) / float64(total)
	}
	sp = parent.Child("nids.Engine.Stats")
	all := make([]float64, 0, statsReps)
	for i := 0; i < statsReps && biggest != nil; i++ {
		r.statsT.begin()
		biggest.Stats()
		r.statsT.end(1)
		start := time.Now()
		for _, e := range engines {
			e.Stats()
		}
		all = append(all, time.Since(start).Seconds())
	}
	sp.End()
	r.statsAllS = medianOf(all)
	return r
}

// obsPass times Series.RecordAt and VirtualClock.Advance in batches, and
// Watcher.Poll with a CUSUM detector one call at a time, each poll seeing
// one new sample as on a telemetry tick. The poll series first grows from
// empty for growPolls ticks, as a run's per-node watcher sees it (their
// total, growS, feeds the self-time estimate); the reported per-call times
// come from the full series after that.
func obsPass(parent *obs.TraceSpan, seed int64, growPolls int) (record, poll, advance *batchTimer, growS float64) {
	record, poll, advance = newBatchTimer(time.Nanosecond), newBatchTimer(time.Microsecond), newBatchTimer(time.Nanosecond)
	vc := obs.NewVirtualClock(time.Unix(0, 0).UTC())
	reg := obs.NewRegistryWithClock(vc)
	rng := rand.New(rand.NewSource(seed))

	s := reg.Series("perfbench.record")
	at := vc.Now()
	sp := parent.Child("obs.Series.RecordAt")
	for b := 0; b < obsBatches; b++ {
		record.begin()
		for i := 0; i < processBatch; i++ {
			at = at.Add(time.Millisecond)
			s.RecordAt(at, float64(i))
		}
		record.end(processBatch)
	}
	sp.End()

	sp = parent.Child("obs.VirtualClock.Advance")
	for b := 0; b < obsBatches; b++ {
		advance.begin()
		for i := 0; i < 4*processBatch; i++ {
			vc.Advance(time.Microsecond)
		}
		advance.end(4 * processBatch)
	}
	sp.End()

	ps := reg.Series("perfbench.poll")
	w := obs.WatchSeries("perfbench.poll", ps, nil, &obs.CUSUMDetector{})
	at = vc.Now()
	sp = parent.Child("obs.Watcher.Poll")
	for i := 0; len(poll.samples) < pollCalls; i++ {
		at = at.Add(time.Millisecond)
		ps.RecordAt(at, 1000+50*rng.NormFloat64())
		full := ps.Len() == obs.DefaultSeriesCap
		poll.begin()
		w.Poll()
		switch {
		case i < growPolls:
			growS += time.Since(poll.start).Seconds()
		case full:
			poll.end(1)
		}
	}
	sp.End()
	return record, poll, advance, growS
}

// timedFleet is an in-process shim fleet for the controller pass: it
// applies pushes all-or-nothing, as the emulation's fleet does, and times
// each one.
type timedFleet struct {
	shims   map[int]*shim.Shim
	applyMs []float64 // merged (phase 1) pushes
	initial map[int]*shim.Config
	merged  map[int]*shim.Config
}

func (f *timedFleet) Apply(_ int, phase controller.FleetPhase, cfgs map[int]*shim.Config) error {
	start := time.Now()
	nodes := make([]int, 0, len(cfgs))
	for node := range cfgs {
		nodes = append(nodes, node)
	}
	sort.Ints(nodes)
	for _, node := range nodes {
		if sh, ok := f.shims[node]; ok {
			if err := sh.CheckConfig(cfgs[node]); err != nil {
				return fmt.Errorf("node %d: %w", node, err)
			}
		}
	}
	for _, node := range nodes {
		if sh, ok := f.shims[node]; ok {
			if err := sh.SetConfig(cfgs[node]); err != nil {
				return fmt.Errorf("node %d: %w", node, err)
			}
		} else {
			f.shims[node] = shim.New(cfgs[node])
		}
	}
	if phase == controller.PhaseMerged {
		f.applyMs = append(f.applyMs, float64(time.Since(start).Nanoseconds())/1e6)
		if f.merged == nil {
			f.merged = cfgs
		}
	} else if f.initial == nil {
		f.initial = cfgs
	}
	return nil
}

// ctlResult is the controller pass's measurements.
type ctlResult struct {
	propose, confirm, poll *batchTimer
	newS                   float64
	confirmed, fired       int
	initAssign             *core.Assignment
	initial, merged        map[int]*shim.Config
}

// controllerPass drives controller.New, then Proposals rounds of: ticks of
// per-class load recorded into watched series with a PollDrift per tick,
// Propose of the round's scenario, and Confirm. Round k's scenario is drift
// phase k mod phases with each class volume jittered ±5% by the workload
// seed. Each proposal's scenario is also solved cold for lp.warm_speedup.
func (l *layerRun) controllerPass(dsc *emulation.DriftConfig, rc core.ReplicationConfig) (*ctlResult, error) {
	base := dsc.Base
	sp := l.root.Child("pass.controller")
	defer sp.End()
	r := &ctlResult{
		propose: newBatchTimer(time.Millisecond), confirm: newBatchTimer(time.Millisecond),
		poll: newBatchTimer(time.Microsecond),
	}
	fleet := &timedFleet{shims: map[int]*shim.Shim{}}
	inner := sp.Child("controller.New")
	start := time.Now()
	ctl, err := controller.New(base, fleet, controller.Config{Seed: l.hashSeed, Replication: rc, Planner: controller.ChurnMinPlanner{}})
	r.newS = time.Since(start).Seconds()
	inner.End()
	if err != nil {
		return nil, err
	}
	r.initAssign, r.initial = ctl.Assignment(), fleet.initial

	vc := obs.NewVirtualClock(time.Unix(0, 0).UTC())
	reg := obs.NewRegistryWithClock(vc)
	type watched struct {
		src, dst int
		s        *obs.Series
	}
	var classes []watched
	for _, cl := range heaviestClasses(base, driftWatched) {
		name := fmt.Sprintf("perfbench.class.%d-%d.bytes", cl[0], cl[1])
		s := reg.Series(name)
		ctl.Watch(name, s)
		classes = append(classes, watched{cl[0], cl[1], s})
	}

	rng := rand.New(rand.NewSource(l.seed))
	var planMs []float64
	var warmS, coldS float64
	skips := 0
	for k := 0; k < l.w.Proposals; k++ {
		tm := dsc.Phases[k%len(dsc.Phases)].Matrix.Clone()
		for a := range tm.Sessions {
			for b := range tm.Sessions[a] {
				tm.Sessions[a][b] *= 1 + 0.1*(rng.Float64()-0.5)
			}
		}
		sv := base.WithMatrix(tm)

		inner = sp.Child("controller.PollDrift")
		for t := 0; t < ticksPerPhase; t++ {
			now := vc.Advance(time.Millisecond)
			for _, c := range classes {
				c.s.RecordAt(now, tm.Volume(c.src, c.dst)*(1+0.02*rng.NormFloat64()))
			}
			r.poll.begin()
			r.fired += len(ctl.PollDrift())
			r.poll.end(1)
		}
		inner.End()

		inner = sp.Child("controller.Propose")
		r.propose.begin()
		tr, err := ctl.Propose(sv, "perfbench")
		r.propose.end(1)
		inner.End()
		if err != nil {
			return nil, fmt.Errorf("controller pass: proposal %d: %w", k, err)
		}
		planMs = append(planMs, r.propose.samples[len(r.propose.samples)-1]-float64(tr.Assignment.SolveTime.Nanoseconds())/1e6)
		warmS += tr.Assignment.SolveTime.Seconds()
		skips += tr.Assignment.LPStats.Phase1Skips

		inner = sp.Child("controller.Confirm")
		r.confirm.begin()
		_, err = ctl.Confirm()
		r.confirm.end(1)
		inner.End()
		if err != nil {
			return nil, fmt.Errorf("controller pass: confirm %d: %w", k, err)
		}
		r.confirmed++

		inner = sp.Child("core.SolveReplication.cold")
		cold, err := core.SolveReplication(sv, rc)
		inner.End()
		if err != nil {
			return nil, fmt.Errorf("controller pass: cold solve %d: %w", k, err)
		}
		coldS += cold.SolveTime.Seconds()
	}
	r.merged = fleet.merged
	l.setDist("controller.propose_ms", r.propose.dist())
	l.setDist("controller.plan_ms", summarize(planMs))
	l.setDist("controller.apply_ms", summarize(fleet.applyMs))
	l.setDist("controller.confirm_ms", r.confirm.dist())
	l.setDist("controller.poll_us", r.poll.dist())
	l.set("lp.phase1_skip_share", float64(skips)/float64(l.w.Proposals))
	l.set("lp.warm_speedup", coldS/warmS)
	return r, nil
}

// heaviestClasses returns the top-n (src, dst) classes by base volume,
// heaviest first, ties by key — the classes RunDrift watches.
func heaviestClasses(sc *core.Scenario, n int) [][2]int {
	vol := map[[2]int]float64{}
	for _, cl := range sc.Classes {
		vol[[2]int{cl.Src, cl.Dst}] += cl.Sessions
	}
	keys := make([][2]int, 0, len(vol))
	for k := range vol {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if vol[keys[i]] != vol[keys[j]] {
			return vol[keys[i]] > vol[keys[j]]
		}
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	return keys[:min(n, len(keys))]
}
