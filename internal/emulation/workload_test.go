package emulation

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"nwids/internal/packet"
)

// TestWorkloadGolden pins the generated workload bytes: the SHA-256 of the
// packet.WriteTrace serialization of two GenerateWorkload configurations.
// The digests were recorded from the per-byte rand.Intn generator that the
// in-package source replaced, so a change to the generator's value stream,
// the round-robin order or the planting logic fails here.
func TestWorkloadGolden(t *testing.T) {
	noRep, rep := internet2Assignments(t)
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		{Config{Assignment: rep, TotalSessions: 600, GenSeed: 17},
			"cadf15a26d5439b9def2c017c321edd5e41dde292ff39fb04b90ebb635536a1b"},
		{Config{Assignment: noRep, TotalSessions: 300, GenSeed: 1000, PacketsPerSession: 4, PayloadBytes: 1500, MaliciousFraction: 0.3},
			"78e366efe5c839ee00ad643c75196e1c3925aa104c0ff50cc4928b262097a1e9"},
	} {
		h := sha256.New()
		if err := packet.WriteTrace(h, GenerateWorkload(tc.cfg)); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("seed %d: workload SHA-256 %s, want %s", tc.cfg.GenSeed, got, tc.want)
		}
	}
}

// TestRunCountsInjectedTraffic checks that Run's packet and payload byte
// totals are those of the workload GenerateWorkload materializes.
func TestRunCountsInjectedTraffic(t *testing.T) {
	_, rep := internet2Assignments(t)
	cfg := Config{Assignment: rep, TotalSessions: 300, GenSeed: 5, PayloadBytes: 100}
	var packets int
	var bytes int64
	sessions := GenerateWorkload(cfg)
	for _, s := range sessions {
		packets += len(s.Packets)
		for _, p := range s.Packets {
			bytes += int64(len(p.Payload))
		}
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sessions != len(sessions) || res.Packets != packets || res.PayloadBytes != bytes {
		t.Fatalf("Run injected %d sessions / %d packets / %d bytes, workload has %d / %d / %d",
			res.Sessions, res.Packets, res.PayloadBytes, len(sessions), packets, bytes)
	}
}
