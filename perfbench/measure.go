package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// dist summarizes per-call timings: the median plus the highest percentile
// that still has at least ten samples beyond it, with the sample count.
// Pct is 0 (and High unset) when there are too few samples for any
// percentile above the median.
type dist struct {
	Median float64 `json:"median"`
	Pct    int     `json:"pct,omitempty"`
	High   float64 `json:"high,omitempty"`
	N      int     `json:"n"`
}

// summarize computes a dist over samples (which it sorts in place).
func summarize(samples []float64) dist {
	d := dist{N: len(samples)}
	if len(samples) == 0 {
		return d
	}
	sort.Float64s(samples)
	d.Median = median(samples)
	for _, p := range []int{99, 95, 90, 75} {
		rank := int(math.Ceil(float64(p) / 100 * float64(len(samples))))
		if len(samples)-rank >= 10 {
			d.Pct, d.High = p, samples[rank-1]
			break
		}
	}
	return d
}

// median of sorted samples.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// medianOf returns the median of an unsorted sample set without modifying
// it.
func medianOf(samples []float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return median(s)
}

// batchTimer times groups of fast calls: each batch of ops calls becomes
// one per-call sample, so nanosecond-scale operations are not swamped by
// the cost of reading the clock.
type batchTimer struct {
	samples []float64 // per-call time of each batch, in the caller's unit
	total   time.Duration
	start   time.Time
	scale   float64 // nanoseconds per reported unit
}

func newBatchTimer(unit time.Duration) *batchTimer {
	return &batchTimer{scale: float64(unit)}
}

func (b *batchTimer) begin() { b.start = time.Now() }

// end closes a batch of ops calls begun by begin.
func (b *batchTimer) end(ops int) {
	d := time.Since(b.start)
	if ops <= 0 {
		return
	}
	b.total += d
	b.samples = append(b.samples, float64(d.Nanoseconds())/float64(ops)/b.scale)
}

func (b *batchTimer) dist() dist { return summarize(append([]float64(nil), b.samples...)) }

// peakRSSMB returns the process's peak resident set size in MB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// envRecord is the environment every result is measured on.
type envRecord struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOGC       string `json:"gogc"`
	GitRev     string `json:"git_rev"`
	SourceHash string `json:"source_sha256"`
	Topology   string `json:"topology"`
	Payload    int    `json:"payload_bytes"`
	Sessions   int    `json:"sessions"`
	Workers    int    `json:"workers"`
	Live       bool   `json:"live"`
	HashSeed   uint32 `json:"hash_seed"`
	GenSeed    int64  `json:"gen_seed"`
}

func environment(w *workload, genSeed int64, hashSeed uint32) envRecord {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	return envRecord{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		GOGC:       gogc,
		GitRev:     gitRev("."),
		SourceHash: sourceHash("."),
		Topology:   w.Topology,
		Payload:    w.PayloadBytes,
		Sessions:   w.Sessions,
		Workers:    w.Workers,
		Live:       w.Live,
		HashSeed:   hashSeed,
		GenSeed:    genSeed,
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitRev resolves HEAD from the checkout's .git directory without running
// git; an exported tree (no .git) reports "none" and is identified by its
// source hash instead.
func gitRev(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rev, name, ok := strings.Cut(line, " "); ok && name == ref {
				return rev
			}
		}
	}
	return "unknown"
}

// sourceHash digests every Go source and go.mod file under root (skipping
// hidden and build directories), identifying the measured program even in
// a tree that is not a git checkout.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h.Write([]byte(path))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
