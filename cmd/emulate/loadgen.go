package main

import (
	"fmt"
	"runtime"
	"time"

	"nwids/internal/emulation"
	"nwids/internal/obs"
)

// runLoadgen executes the emulation as a load generator: the run is timed
// against the wall clock (permitted here — the emulation itself is
// restricted to the virtual clock) and reported as pps/Gbps/ns-per-packet,
// with whole-run heap allocations per packet from runtime.MemStats deltas.
// The figures land in the registry under bench.packetpath.* so a -metrics
// artifact carries them, mirroring the gauge names BenchmarkPacketPath
// records into BENCH_<rev>.json.
func runLoadgen(cfg emulation.Config, reg *obs.Registry) (*emulation.Result, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := emulation.Run(cfg)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, err
	}
	// The totals of what Run injected, generation included in the timing.
	packets, bytes := res.Packets, res.PayloadBytes

	sec := elapsed.Seconds()
	allocs := float64(after.Mallocs - before.Mallocs)
	if packets > 0 && sec > 0 {
		reg.Gauge("bench.packetpath.pps").Set(float64(packets) / sec)
		reg.Gauge("bench.packetpath.ns_per_pkt").Set(sec * 1e9 / float64(packets))
		reg.Gauge("bench.packetpath.gbps").Set(float64(bytes) * 8 / sec / 1e9)
		reg.Gauge("bench.packetpath.allocs_per_pkt").Set(allocs / float64(packets))
	}
	reg.Gauge("bench.packetpath.wall_ms").Set(sec * 1e3)

	fmt.Printf("loadgen: %d packets (%d bytes payload) in %s\n", packets, bytes, elapsed.Round(time.Microsecond))
	if packets > 0 && sec > 0 {
		fmt.Printf("loadgen: %.2f Mpps, %.3f Gbps (payload), %.0f ns/pkt, %.2f allocs/pkt (whole run)\n",
			float64(packets)/sec/1e6, float64(bytes)*8/sec/1e9,
			sec*1e9/float64(packets), allocs/float64(packets))
	}
	return res, nil
}
