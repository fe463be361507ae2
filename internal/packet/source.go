package packet

import "math/rand"

// math/rand's default source is an additive lagged Fibonacci generator,
//
//	x_n = x_{n-607} + x_{n-273}  (mod 2^64),
//
// whose value stream the Go 1 compatibility promise freezes. fibSource
// reproduces that stream exactly, but with its ring state in reach of the
// package, so payload synthesis can draw and map bytes in one tight loop
// instead of paying two interface calls and two runtime divisions per byte
// through rand.Rand.Intn.
const (
	fibLen = 607
	fibTap = 273
)

// fibSource is a rand.Source64 yielding the same values, draw for draw, as
// rand.NewSource(seed). vec is a ring of the last fibLen values: draw n
// reads x_{n-607} at vec[pos] and x_{n-273} at vec[pos-273 mod 607], and
// stores x_n over x_{n-607}.
type fibSource struct {
	pos int
	vec [fibLen]uint64
}

// newFibSource returns a source positioned at the start of
// rand.NewSource(seed)'s stream. The stdlib keeps its seeded state private,
// so the state is rebuilt from the stream: the first fibLen outputs
// x_0..x_606 give the seeded values x_{-607}..x_{-1} by the inverted
// recurrence x_{n-607} = x_n - x_{n-273}. Walking n downwards, x_{n-273} is
// still in the ring for n >= 273, and for n < 273 it is x_{(n+334)-607},
// already rebuilt at index n+334.
func newFibSource(seed int64) *fibSource {
	std := rand.NewSource(seed).(rand.Source64)
	s := &fibSource{}
	for n := range s.vec {
		s.vec[n] = std.Uint64()
	}
	for n := fibLen - 1; n >= 0; n-- {
		s.vec[n] -= s.vec[(n+fibLen-fibTap)%fibLen]
	}
	return s
}

// Uint64 implements rand.Source64.
func (s *fibSource) Uint64() uint64 {
	lag := s.pos - fibTap
	if lag < 0 {
		lag += fibLen
	}
	x := s.vec[s.pos] + s.vec[lag]
	s.vec[s.pos] = x
	if s.pos++; s.pos == fibLen {
		s.pos = 0
	}
	return x
}

// Int63 implements rand.Source.
func (s *fibSource) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

// Seed implements rand.Source, restarting the stream at seed.
func (s *fibSource) Seed(seed int64) { *s = *newFibSource(seed) }

// payloadAlphabet is the benign filler alphabet; planted signatures are the
// only detections.
const payloadAlphabet = "abcdefghijklmnopqrstuvwxyz0123456789 ._/"

// fillAlphabet fills b exactly as
//
//	for i := range b { b[i] = payloadAlphabet[r.Intn(len(payloadAlphabet))] }
//
// would on a rand.Rand over s. Intn(40) is Int31n(40): it draws
// v = Int63() >> 32, redraws while v falls in the incomplete block of 40 at
// the top of [0, 2^31), then returns v % 40. Both the bound and the modulo
// are hard-coded here, so the loop divides by a constant. It walks the ring in runs over which neither index wraps
// (the lag index wraps at pos 273), so each run is two plain slices.
func (s *fibSource) fillAlphabet(b []byte) {
	const (
		n     = uint32(len(payloadAlphabet))
		limit = 1<<31 - 1 - (1<<31)%n
	)
	pos, i := s.pos, 0
	for i < len(b) {
		end, lag := fibLen, pos-fibTap
		if pos < fibTap {
			end, lag = fibTap, pos+fibLen-fibTap
		}
		cur := s.vec[pos:end]
		old := s.vec[lag:][:len(cur)]
		j := 0
		for ; j < len(cur) && i < len(b); j++ {
			x := cur[j] + old[j]
			cur[j] = x
			if v := uint32(x>>32) & (1<<31 - 1); v <= limit {
				b[i] = payloadAlphabet[v%n]
				i++
			}
		}
		if pos += j; pos == fibLen {
			pos = 0
		}
	}
	s.pos = pos
}
