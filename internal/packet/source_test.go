package packet

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestFibSourceMatchesStdlib pins fibSource to rand.NewSource's value
// stream: a rand.Rand over each source sees the same Int63, Float64 and
// Intn draws, and fillAlphabet consumes the stream exactly as a per-byte
// Intn(len(payloadAlphabet)) loop does, with all of them interleaved.
func TestFibSourceMatchesStdlib(t *testing.T) {
	for _, seed := range []int64{0, 1, -1, -7919, 17, 1000, 1 << 40, -1 << 62} {
		std := rand.New(rand.NewSource(seed))
		src := newFibSource(seed)
		fib := rand.New(src)
		ops := rand.New(rand.NewSource(seed ^ 0x5eed)) // picks the interleaving
		for step := 0; step < 3000; step++ {
			switch op := ops.Intn(5); op {
			case 0:
				if a, b := std.Int63(), fib.Int63(); a != b {
					t.Fatalf("seed %d step %d: Int63 %d, want %d", seed, step, b, a)
				}
			case 1:
				if a, b := std.Float64(), fib.Float64(); a != b {
					t.Fatalf("seed %d step %d: Float64 %g, want %g", seed, step, b, a)
				}
			case 2:
				n := 1 + ops.Intn(70000)
				if a, b := std.Intn(n), fib.Intn(n); a != b {
					t.Fatalf("seed %d step %d: Intn(%d) %d, want %d", seed, step, n, b, a)
				}
			case 3:
				if a, b := std.Uint64(), fib.Uint64(); a != b {
					t.Fatalf("seed %d step %d: Uint64 %d, want %d", seed, step, b, a)
				}
			case 4:
				n := ops.Intn(2000)
				want := make([]byte, n)
				for i := range want {
					want[i] = payloadAlphabet[std.Intn(len(payloadAlphabet))]
				}
				got := make([]byte, n)
				src.fillAlphabet(got)
				if !bytes.Equal(got, want) {
					t.Fatalf("seed %d step %d: fillAlphabet(%d bytes) diverges from per-byte Intn", seed, step, n)
				}
			}
		}
	}
}

// TestFillAlphabetRejects covers Int31n's redraw, which random seeds
// almost never reach (about 4 in 10^9 draws): a crafted ring makes some
// draws land in the rejected top block, and fillAlphabet must skip exactly
// those, as per-byte Intn on a copy of the same state does, including
// around the ring's wrap points.
func TestFillAlphabetRejects(t *testing.T) {
	const n, rejected = 300, 6
	for _, start := range []int{0, 5, 270, 600} {
		s := newFibSource(42)
		s.pos = start
		for _, k := range []int{0, 1, 2, 7, 100, 272} {
			p := (start + k) % fibLen
			lag := (p + fibLen - fibTap) % fibLen
			s.vec[p] = 1<<63 - 1 - s.vec[lag] // draw = 2^63-1, so v = 2^31-1
		}
		ref := *s
		r := rand.New(&ref)
		want := make([]byte, n)
		for i := range want {
			want[i] = payloadAlphabet[r.Intn(len(payloadAlphabet))]
		}
		if drawn := (ref.pos - start + fibLen) % fibLen; drawn != n+rejected {
			t.Fatalf("start %d: reference made %d draws, want %d", start, drawn, n+rejected)
		}
		got := make([]byte, n)
		s.fillAlphabet(got)
		if !bytes.Equal(got, want) || s.pos != ref.pos || s.vec != ref.vec {
			t.Fatalf("start %d: fillAlphabet diverges from per-byte Intn across rejected draws", start)
		}
	}
}

// TestFibSourceSeed checks that reseeding restarts the stdlib stream.
func TestFibSourceSeed(t *testing.T) {
	src := newFibSource(3)
	src.Int63()
	src.Seed(99)
	std := rand.NewSource(99)
	for i := 0; i < 2000; i++ {
		if a, b := std.Int63(), src.Int63(); a != b {
			t.Fatalf("draw %d after Seed(99): %d, want %d", i, b, a)
		}
	}
}

// TestStreamMatchesMatrix checks that the streamed sessions equal the
// collected Matrix ones, session for session, and that Len is exact.
func TestStreamMatchesMatrix(t *testing.T) {
	cfg := GeneratorConfig{Signatures: [][]byte{[]byte("evil-bytes")}, MaliciousFraction: 0.3, PayloadBytes: 97}
	counts := [][]int{
		{0, 5, 1, 0},
		{2, 0, 0, 7},
		{1, 0, 0, 0},
		{0, 3, 2, 1},
	}
	want := NewGenerator(cfg, 11).Matrix(counts)
	st := NewGenerator(cfg, 11).Stream(counts)
	if st.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", st.Len(), len(want))
	}
	for i := range want {
		got, ok := st.Next()
		if !ok {
			t.Fatalf("stream ended after %d of %d sessions", i, len(want))
		}
		if !sessionsEqual(got, want[i]) {
			t.Fatalf("session %d differs: %+v vs %+v", i, got.Tuple, want[i].Tuple)
		}
	}
	if _, ok := st.Next(); ok {
		t.Fatal("stream yields more sessions than Matrix")
	}
	if got := NewGenerator(cfg, 11).Matrix([][]int{{0}}); got != nil {
		t.Fatalf("empty matrix = %v, want nil", got)
	}
}

func sessionsEqual(a, b Session) bool {
	if a.Tuple != b.Tuple || a.SrcPoP != b.SrcPoP || a.DstPoP != b.DstPoP ||
		a.Malicious != b.Malicious || a.SignatureID != b.SignatureID || len(a.Packets) != len(b.Packets) {
		return false
	}
	for i := range a.Packets {
		p, q := a.Packets[i], b.Packets[i]
		if p.Tuple != q.Tuple || p.Dir != q.Dir || !bytes.Equal(p.Payload, q.Payload) {
			return false
		}
	}
	return true
}

func BenchmarkPayloadFill(b *testing.B) {
	buf := make([]byte, 1500)
	b.Run("stdlib-intn", func(b *testing.B) {
		r := rand.New(rand.NewSource(1))
		b.SetBytes(int64(len(buf)))
		for i := 0; i < b.N; i++ {
			for j := range buf {
				buf[j] = payloadAlphabet[r.Intn(len(payloadAlphabet))]
			}
		}
	})
	b.Run("fill", func(b *testing.B) {
		src := newFibSource(1)
		b.SetBytes(int64(len(buf)))
		for i := 0; i < b.N; i++ {
			src.fillAlphabet(buf)
		}
	})
}
