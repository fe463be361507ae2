// Package packet models IP 5-tuples, packets and session traces for the
// emulation substrate: a from-scratch stand-in for the Scapy-generated,
// BitTwist-injected traces of the paper's Emulab evaluation (§8.1), with
// deterministic payload synthesis and plantable attack artifacts.
package packet

import (
	"fmt"
	"math/rand"
)

// Proto numbers used by the generator.
const (
	ProtoTCP uint8 = 6
	ProtoUDP uint8 = 17
)

// FiveTuple identifies a flow direction: protocol, addresses and ports.
type FiveTuple struct {
	Proto            uint8
	SrcIP, DstIP     uint32
	SrcPort, DstPort uint16
}

// Reverse returns the tuple of the opposite direction.
func (t FiveTuple) Reverse() FiveTuple {
	return FiveTuple{Proto: t.Proto, SrcIP: t.DstIP, DstIP: t.SrcIP, SrcPort: t.DstPort, DstPort: t.SrcPort}
}

// Canonical returns a direction-independent form of the tuple: the
// (IP, port) endpoint pair is ordered so that both directions of a session
// canonicalize identically (§7.2's bidirectional pinning trick [37]).
func (t FiveTuple) Canonical() FiveTuple {
	if t.SrcIP < t.DstIP || (t.SrcIP == t.DstIP && t.SrcPort <= t.DstPort) {
		return t
	}
	return t.Reverse()
}

// IsCanonical reports whether the tuple is already in canonical form.
func (t FiveTuple) IsCanonical() bool { return t == t.Canonical() }

// String renders the tuple in a tcpdump-like form.
func (t FiveTuple) String() string {
	return fmt.Sprintf("%d %s:%d > %s:%d", t.Proto, ipString(t.SrcIP), t.SrcPort, ipString(t.DstIP), t.DstPort)
}

func ipString(ip uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

// Direction labels which side of a session a packet belongs to.
type Direction uint8

// Directions.
const (
	Forward Direction = iota // initiator → responder
	Reverse                  // responder → initiator
)

// Packet is one packet of a session trace.
type Packet struct {
	Tuple   FiveTuple
	Dir     Direction
	Payload []byte
}

// Session is an ordered bidirectional packet exchange between two hosts.
type Session struct {
	// Tuple is the forward-direction (initiator's) tuple.
	Tuple FiveTuple
	// SrcPoP and DstPoP are the ingress/egress PoPs of the initiator and
	// responder.
	SrcPoP, DstPoP int
	// Packets in injection order (the supernode preserves intra-session
	// ordering, §8.1).
	Packets []Packet
	// Malicious marks sessions carrying a planted signature.
	Malicious bool
	// SignatureID is the planted rule ID when Malicious.
	SignatureID int
}

// PoPIP returns a host address inside the /16 assigned to a PoP:
// 10.pop.x.y. The mapping is the generator's convention for locating a
// host's PoP from its address.
func PoPIP(pop int, host uint16) uint32 {
	return 10<<24 | uint32(pop&0xff)<<16 | uint32(host)
}

// PoPOf recovers the PoP index from an address produced by PoPIP.
func PoPOf(ip uint32) int { return int(ip >> 16 & 0xff) }

// GeneratorConfig controls synthetic session generation.
type GeneratorConfig struct {
	// PacketsPerSession is the number of packets per session (default 6,
	// alternating directions).
	PacketsPerSession int
	// PayloadBytes is the payload size per packet (default 256).
	PayloadBytes int
	// MaliciousFraction is the probability a session carries a planted
	// signature string (default 0.01).
	MaliciousFraction float64
	// Signatures lists the byte strings that can be planted; required when
	// MaliciousFraction > 0.
	Signatures [][]byte
}

func (c GeneratorConfig) withDefaults() GeneratorConfig {
	if c.PacketsPerSession == 0 {
		c.PacketsPerSession = 6
	}
	if c.PayloadBytes == 0 {
		c.PayloadBytes = 256
	}
	if c.MaliciousFraction == 0 {
		c.MaliciousFraction = 0.01
	}
	return c
}

// Generator synthesizes deterministic session traces for a traffic matrix,
// playing the role of the paper's offline trace generator plus the M57
// payload templates. Every draw comes from one rand.NewSource(seed) value
// stream: tuples, coin flips and plant offsets through rng, payload bytes
// straight from src, the same source rng wraps.
type Generator struct {
	cfg GeneratorConfig
	src *fibSource
	rng *rand.Rand
}

// NewGenerator returns a generator with the given config and seed.
func NewGenerator(cfg GeneratorConfig, seed int64) *Generator {
	src := newFibSource(seed)
	return &Generator{cfg: cfg.withDefaults(), src: src, rng: rand.New(src)}
}

// Session produces one session between hosts at the given PoPs.
func (g *Generator) Session(srcPoP, dstPoP int) Session {
	tuple := FiveTuple{
		Proto:   ProtoTCP,
		SrcIP:   PoPIP(srcPoP, uint16(1+g.rng.Intn(60000))),
		DstIP:   PoPIP(dstPoP, uint16(1+g.rng.Intn(60000))),
		SrcPort: uint16(1024 + g.rng.Intn(60000)),
		DstPort: 80,
	}
	s := Session{Tuple: tuple, SrcPoP: srcPoP, DstPoP: dstPoP}
	malicious := len(g.cfg.Signatures) > 0 && g.rng.Float64() < g.cfg.MaliciousFraction
	plantAt := -1
	if malicious {
		s.Malicious = true
		s.SignatureID = g.rng.Intn(len(g.cfg.Signatures))
		plantAt = g.rng.Intn(g.cfg.PacketsPerSession)
	}
	// One backing block for the session's payloads; each packet gets a
	// capacity-capped window of it.
	n := g.cfg.PayloadBytes
	block := make([]byte, g.cfg.PacketsPerSession*n)
	s.Packets = make([]Packet, 0, g.cfg.PacketsPerSession)
	for i := 0; i < g.cfg.PacketsPerSession; i++ {
		dir := Direction(i % 2)
		t := tuple
		if dir == Reverse {
			t = tuple.Reverse()
		}
		payload := block[i*n : (i+1)*n : (i+1)*n]
		g.src.fillAlphabet(payload)
		if i == plantAt {
			sig := g.cfg.Signatures[s.SignatureID]
			if len(sig) <= len(payload) {
				off := g.rng.Intn(len(payload) - len(sig) + 1)
				copy(payload[off:], sig)
			}
		}
		s.Packets = append(s.Packets, Packet{Tuple: t, Dir: dir, Payload: payload})
	}
	return s
}

// payload returns n benign filler bytes drawn from a printable alphabet so
// that planted signatures are the only detections.
func (g *Generator) payload(n int) []byte {
	b := make([]byte, n)
	g.src.fillAlphabet(b)
	return b
}

// Matrix generates sessionsPerPair[i][j] sessions for every PoP pair,
// returning them in a deterministic interleaved injection order (round-robin
// across pairs, preserving intra-session order downstream). It collects
// Stream(sessionsPerPair).
func (g *Generator) Matrix(sessionsPerPair [][]int) []Session {
	return g.Stream(sessionsPerPair).Collect()
}

// Stream returns an iterator over the sessions Matrix(sessionsPerPair)
// returns, in the same order, generating each one only when it is asked
// for. The generator must not be used for anything else until the stream
// is exhausted.
func (g *Generator) Stream(sessionsPerPair [][]int) *SessionStream {
	n := len(sessionsPerPair)
	st := &SessionStream{g: g, n: n, counts: make([]int, n*n)}
	for a, row := range sessionsPerPair {
		for b, c := range row {
			st.counts[a*n+b] = c
			st.left += c
		}
	}
	st.total = st.left
	return st
}

// SessionStream yields a traffic matrix's sessions one at a time in
// Matrix's round-robin order: repeated sweeps over the (src, dst) pairs in
// row-major order, one session per pair that still has sessions left.
type SessionStream struct {
	g           *Generator
	n           int
	counts      []int // sessions left per pair, row-major
	total, left int
	at          int // row-major pair index the sweep resumes at
}

// Len returns the total number of sessions the stream yields.
func (st *SessionStream) Len() int { return st.total }

// Next returns the next session, or false once the stream is exhausted.
func (st *SessionStream) Next() (Session, bool) {
	if st.left == 0 {
		return Session{}, false
	}
	for st.counts[st.at] == 0 {
		st.at = (st.at + 1) % len(st.counts)
	}
	pair := st.at
	st.counts[pair]--
	st.left--
	st.at = (st.at + 1) % len(st.counts)
	return st.g.Session(pair/st.n, pair%st.n), true
}

// Collect drains the stream into a slice (nil when it is empty).
func (st *SessionStream) Collect() []Session {
	var out []Session
	if st.left > 0 {
		out = make([]Session, 0, st.left)
	}
	for s, ok := st.Next(); ok; s, ok = st.Next() {
		out = append(out, s)
	}
	return out
}

// ScanSessions synthesizes a scanner: a single source at srcPoP contacting
// distinct destination hosts spread across the given PoPs, one short session
// each — the workload for the scan-detection experiments.
func (g *Generator) ScanSessions(srcPoP int, dstPoPs []int, contacts int) []Session {
	srcIP := PoPIP(srcPoP, uint16(1+g.rng.Intn(60000)))
	srcPort := uint16(1024 + g.rng.Intn(60000))
	var out []Session
	for i := 0; i < contacts; i++ {
		dstPoP := dstPoPs[i%len(dstPoPs)]
		tuple := FiveTuple{
			Proto:   ProtoTCP,
			SrcIP:   srcIP,
			DstIP:   PoPIP(dstPoP, uint16(1+i)),
			SrcPort: srcPort,
			DstPort: uint16(1 + g.rng.Intn(1024)),
		}
		out = append(out, Session{
			Tuple:   tuple,
			SrcPoP:  srcPoP,
			DstPoP:  dstPoP,
			Packets: []Packet{{Tuple: tuple, Dir: Forward, Payload: g.payload(40)}},
		})
	}
	return out
}
