package nwids_test

import (
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"

	"nwids/internal/obs"
	"nwids/internal/packet"
)

// benchReg collects per-benchmark timing distributions so a bench run can
// leave the same machine-readable artifact as the cmd binaries' -metrics
// flag.
var benchReg = obs.NewRegistry()

// TestMain writes the collected benchmark metrics when BENCH_METRICS names
// an output file:
//
//	BENCH_METRICS=bench.json go test -bench=. -run=^$ .
//
// Two artifacts result: the full registry snapshot at the named path, and
// a flat BENCH_<rev>.json trajectory artifact (bench name → value) in the
// same directory, comparable across commits with cmd/benchdiff. The rev
// comes from BENCH_REV, falling back to `git rev-parse --short HEAD`, then
// to "dev".
func TestMain(m *testing.M) {
	code := m.Run()
	if path := os.Getenv("BENCH_METRICS"); path != "" && code == 0 {
		if err := benchReg.WriteJSONFile(path, map[string]any{"run": "bench"}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
		dir := "."
		if i := strings.LastIndexByte(path, '/'); i >= 0 {
			dir = path[:i]
		}
		if artPath, err := obs.WriteBenchArtifact(dir, benchRev(), benchReg.Snapshot(nil)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		} else {
			fmt.Fprintln(os.Stderr, "bench artifact:", artPath)
		}
	}
	os.Exit(code)
}

// benchRev identifies the code under test for the artifact filename.
func benchRev() string {
	if rev := os.Getenv("BENCH_REV"); rev != "" {
		return rev
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		if rev := strings.TrimSpace(string(out)); rev != "" {
			return rev
		}
	}
	return "dev"
}

// benchRecord folds a benchmark invocation's per-op wall time into the
// shared registry under bench.<name>.sec_per_op. Defer it at the top of a
// leaf benchmark body (calibration passes contribute too, so the histogram
// shows the spread, not just the final N). A benchmark that calls b.Run
// must not record: its elapsed time is the total of its sub-benchmarks, and
// benchdiff would read their noise as a regression of the parent.
func benchRecord(b *testing.B) {
	if b.N > 0 {
		benchReg.Histogram("bench." + b.Name() + ".sec_per_op").
			Observe(b.Elapsed().Seconds() / float64(b.N))
	}
}

// newBenchPacketGen returns a generator of realistic packets spanning many
// classes for the shim-throughput benchmark.
func newBenchPacketGen() func(n int) []packet.Packet {
	gen := packet.NewGenerator(packet.GeneratorConfig{PacketsPerSession: 2, PayloadBytes: 64}, 1)
	return func(n int) []packet.Packet {
		var out []packet.Packet
		for len(out) < n {
			s := gen.Session(0, 1+len(out)%10)
			out = append(out, s.Packets...)
		}
		return out[:n]
	}
}
