package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"sync"
	"testing"
	"time"

	"nwids/internal/metrics"
)

// TestConcurrentInstruments hammers every instrument type from many
// goroutines; run with -race to check the synchronization. Histogram h
// takes more observations than HistogramRetain, so only its count and
// extremes are exact; histogram hx stays within HistogramRetain, so its
// quantiles are exact too, whatever the goroutine interleaving.
func TestConcurrentInstruments(t *testing.T) {
	reg := NewRegistry()
	const workers = 8
	const perWorker = 1000
	const exactPerWorker = HistogramRetain / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				reg.Counter("c").Inc()
				reg.Counter("c2").Add(2)
				reg.Gauge("g").Set(float64(i))
				reg.Gauge("gmax").Max(float64(w*perWorker + i))
				reg.Histogram("h").Observe(float64(i))
				if i < exactPerWorker {
					reg.Histogram("hx").Observe(float64(i))
				}
				reg.Timer("t").ObserveDuration(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	wg.Wait()

	if got := reg.Counter("c").Value(); got != workers*perWorker {
		t.Errorf("counter c = %d, want %d", got, workers*perWorker)
	}
	if got := reg.Counter("c2").Value(); got != 2*workers*perWorker {
		t.Errorf("counter c2 = %d, want %d", got, 2*workers*perWorker)
	}
	if got := reg.Gauge("gmax").Value(); got != workers*perWorker-1 {
		t.Errorf("gauge gmax = %g, want %d", got, workers*perWorker-1)
	}
	hs := reg.Histogram("h").Snapshot()
	if hs.Count != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", hs.Count, workers*perWorker)
	}
	if hs.Min != 0 || hs.Max != perWorker-1 {
		t.Errorf("histogram min/max = %g/%g, want 0/%d", hs.Min, hs.Max, perWorker-1)
	}
	wantMean := float64(perWorker-1) / 2
	if math.Abs(hs.Mean-wantMean) > 1e-9 {
		t.Errorf("histogram mean = %g, want %g", hs.Mean, wantMean)
	}
	if !hs.Sampled {
		t.Errorf("histogram with %d observations is not marked sampled", hs.Count)
	}
	var exact []float64
	for w := 0; w < workers; w++ {
		for i := 0; i < exactPerWorker; i++ {
			exact = append(exact, float64(i))
		}
	}
	xs := reg.Histogram("hx").Snapshot()
	if xs.Count != len(exact) || xs.Sampled {
		t.Errorf("histogram hx count/sampled = %d/%v, want %d/false", xs.Count, xs.Sampled, len(exact))
	}
	if want := metrics.Quantile(exact, 0.5); xs.P50 != want {
		t.Errorf("histogram hx p50 = %g, want %g", xs.P50, want)
	}
	if ts := reg.Timer("t").Snapshot(); ts.Count != workers*perWorker {
		t.Errorf("timer count = %d, want %d", ts.Count, workers*perWorker)
	}
}

// TestNilRegistry checks that a nil registry is a usable no-op sink for
// every instrument, including the telemetry-plane additions (Series, the
// registry clock) and the span API reachable from a nil tracer.
func TestNilRegistry(t *testing.T) {
	var reg *Registry
	reg.Counter("x").Inc()
	reg.Gauge("x").Set(1)
	reg.Histogram("x").Observe(1)
	reg.Timer("x").Start().Stop()

	// Series from a nil registry is live but unregistered: recording works,
	// nothing shows up in snapshots.
	s := reg.Series("x")
	s.Record(1)
	s.RecordAt(time.Unix(0, 0), 2)
	if s.Len() != 2 || s.Total() != 2 {
		t.Errorf("nil-registry series len/total = %d/%d", s.Len(), s.Total())
	}
	if _, cur := s.Since(0); cur != 2 {
		t.Errorf("nil-registry series cursor = %d", cur)
	}
	s.Stats(0)
	s.Snapshot()

	// Watching an unregistered series is equally safe, as is a nil watcher.
	WatchSeries("x", s, nil, &EWMADetector{}).Poll()
	var w *Watcher
	w.Poll()
	if w.Events() != nil {
		t.Error("nil watcher has events")
	}

	if reg.Clock() != Wall {
		t.Error("nil registry clock should be Wall")
	}
	if names := reg.Names(); names != nil {
		t.Errorf("nil registry has instruments %v", names)
	}
	snap := reg.Snapshot(nil)
	if snap.Schema != Schema || len(snap.Counters) != 0 || len(snap.Timeline) != 0 {
		t.Errorf("nil registry snapshot = %+v", snap)
	}
}

func TestTimerSpan(t *testing.T) {
	var tm Timer
	d := tm.Time(func() { time.Sleep(time.Millisecond) })
	if d < time.Millisecond {
		t.Errorf("span duration %v < 1ms", d)
	}
	s := tm.Snapshot()
	if s.Count != 1 || s.Sum < 0.001 {
		t.Errorf("timer snapshot = %+v", s)
	}
}

// TestSnapshotJSONRoundTrip exports a registry and re-parses the JSON.
func TestSnapshotJSONRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("shim.processed").Add(42)
	reg.Gauge("node.load.max").Set(1.25)
	for i := 0; i < 10; i++ {
		reg.Histogram("node.work").Observe(float64(i * i))
	}
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf, map[string]any{"run": "test", "seed": 7}); err != nil {
		t.Fatal(err)
	}
	var got RegistrySnapshot
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("exported JSON does not parse: %v", err)
	}
	if got.Schema != Schema {
		t.Errorf("schema = %q, want %q", got.Schema, Schema)
	}
	if got.Counters["shim.processed"] != 42 {
		t.Errorf("counter = %d, want 42", got.Counters["shim.processed"])
	}
	if got.Gauges["node.load.max"] != 1.25 {
		t.Errorf("gauge = %g, want 1.25", got.Gauges["node.load.max"])
	}
	if h := got.Histograms["node.work"]; h.Count != 10 || h.Max != 81 {
		t.Errorf("histogram = %+v", h)
	}
	if got.Meta["run"] != "test" {
		t.Errorf("meta = %v", got.Meta)
	}
}
