package lp

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
)

// Factor is an LU factorization of a square sparse basis matrix, augmented
// with a product-form eta file so that the represented matrix can track
// simplex basis changes between refactorizations.
//
// The factorization is a left-looking LU with a static column ordering by
// ascending column count (stable on basis position) and partial pivoting
// within each column: the largest magnitude among the unpivoted rows, ties
// going to the lowest row index. Each column is eliminated on its nonzero
// pattern only, applying earlier L columns in ascending pivot position, so
// the work is proportional to the fill rather than to m per column. Basis
// changes append product-form etas until the next Factorize; there is no
// Markowitz ordering and no Forrest–Tomlin update. Ftran and Btran use
// dense work vectors, which is the right tradeoff for the basis sizes
// appearing in this repository (hundreds to a few thousand rows).
type Factor struct {
	m int

	// L: unit lower triangular, subdiagonal entries only, column storage,
	// row/column indices in pivot coordinates.
	lPtr []int32
	lRow []int32
	lVal []float64

	// U: upper triangular including diagonal, column storage, pivot coords.
	uPtr  []int32
	uRow  []int32
	uVal  []float64
	udiag []float64

	// prow[k] = original row index pivoted at position k.
	// pinv[i]  = pivot position of original row i.
	// cq[k]    = position-in-basis of the column processed at position k.
	prow, pinv, cq []int32

	// eta file: each eta records a basis change replacing basis position r
	// with a column whose FTRAN image was w. The off-pivot entries of every
	// eta live in etaRow/etaVal, which are reused across refactorizations.
	etas   []eta
	etaRow []int32
	etaVal []float64

	// scratch
	work   []float64
	work2  []float64
	order  []int32 // column processing order
	counts []int32 // nonzero count per basis position
	mark   []bool  // row is in the current column's pattern
	patt   []int32 // current column's nonzero pattern (original rows)
	heap   []int32 // min-heap of pivot positions still to apply
	upos   []int32 // pivot positions reached, in the order applied
	lrows  []int32 // unpivoted pattern rows, sorted before emitting L
}

type eta struct {
	r      int32
	lo, hi int32   // off-pivot entries are etaRow/etaVal[lo:hi]
	wr     float64 // pivot element w[r]
}

// ErrSingular reports a structurally or numerically singular basis. The
// simplex driver repairs the basis (swapping in logicals) and retries.
var ErrSingular = errors.New("lp: singular basis")

// SingularError carries the detail needed to repair a singular basis.
type SingularError struct {
	// FailedPositions lists basis positions whose columns could not be
	// pivoted.
	FailedPositions []int
	// UnpivotedRows lists original row indices left without a pivot.
	UnpivotedRows []int
}

// Error implements error.
func (e *SingularError) Error() string {
	return fmt.Sprintf("lp: singular basis (%d deficient columns)", len(e.FailedPositions))
}

// Unwrap lets errors.Is(err, ErrSingular) succeed.
func (e *SingularError) Unwrap() error { return ErrSingular }

// basisColumn is the callback used by Factorize to fetch the sparse column
// occupying basis position k.
type basisColumn func(k int) (rows []int32, vals []float64)

// Factorize (re)computes the LU factors of the m×m matrix whose k-th column
// is col(k), discarding any accumulated etas. pivotTol rejects pivots with
// magnitude below it.
func (f *Factor) Factorize(m int, col basisColumn, pivotTol float64) error {
	f.m = m
	f.etas = f.etas[:0]
	f.etaRow = f.etaRow[:0]
	f.etaVal = f.etaVal[:0]
	f.lPtr = append(f.lPtr[:0], 0)
	f.lRow = f.lRow[:0]
	f.lVal = f.lVal[:0]
	f.uPtr = append(f.uPtr[:0], 0)
	f.uRow = f.uRow[:0]
	f.uVal = f.uVal[:0]
	f.udiag = f.udiag[:0]
	if cap(f.prow) < m {
		f.prow = make([]int32, m)
		f.pinv = make([]int32, m)
		f.cq = make([]int32, m)
		f.work = make([]float64, m)
		f.work2 = make([]float64, m)
		f.order = make([]int32, m)
		f.counts = make([]int32, m)
		f.mark = make([]bool, m)
	}
	f.prow = f.prow[:m]
	f.pinv = f.pinv[:m]
	f.cq = f.cq[:m]
	f.work = f.work[:m]
	f.work2 = f.work2[:m]
	f.order = f.order[:m]
	f.counts = f.counts[:m]
	f.mark = f.mark[:m]
	for i := range f.pinv {
		f.pinv[i] = -1
		f.work[i] = 0
		f.mark[i] = false
	}

	// Static column order: ascending nonzero count, stable on index, so the
	// near-triangular bases produced by the NIDS formulations factorize with
	// minimal fill.
	order, counts := f.order, f.counts
	for k := 0; k < m; k++ {
		order[k] = int32(k)
		rows, _ := col(k)
		counts[k] = int32(len(rows))
	}
	slices.SortStableFunc(order, func(a, b int32) int { return cmp.Compare(counts[a], counts[b]) })

	// x is the dense accumulator, zero outside the current column's pattern.
	// During factorization lRow holds original row indices; they are
	// remapped to pivot coordinates once all pivots are known.
	x, mark := f.work, f.mark
	patt, heap, lrows := f.patt[:0], f.heap[:0], f.lrows[:0]
	upos := f.upos[:0]
	// reach adds row r to the pattern; a pivoted row queues its position.
	reach := func(r int32) {
		if mark[r] {
			return
		}
		mark[r] = true
		patt = append(patt, r)
		if t := f.pinv[r]; t >= 0 {
			heap = heapPush(heap, t)
		}
	}
	var failed []int
	npiv := 0
	for _, kc := range order {
		rows, vals := col(int(kc))
		patt, heap, upos, lrows = patt[:0], heap[:0], upos[:0], lrows[:0]
		for i, r := range rows {
			x[r] = vals[i]
			reach(r)
		}
		// Left-looking update: apply L column t for every pivot position
		// the column reaches, in increasing t. A row of L column t was
		// unpivoted when t was created, so any position it queues is > t and
		// the heap never yields a position out of order. Once t is popped,
		// x at its pivot row is final: later L columns never touch it.
		for len(heap) > 0 {
			var t int32
			t, heap = heapPop(heap)
			upos = append(upos, t)
			xv := x[f.prow[t]]
			if xv == 0 {
				continue
			}
			for q := f.lPtr[t]; q < f.lPtr[t+1]; q++ {
				r := f.lRow[q]
				x[r] -= f.lVal[q] * xv
				reach(r)
			}
		}
		// Pivot: the largest |x| among unpivoted rows, lowest row on a tie —
		// exactly what a scan of the rows in index order with a strict > keeps.
		var best int32 = -1
		bestAbs := 0.0
		for _, r := range patt {
			if f.pinv[r] >= 0 || x[r] == 0 {
				continue
			}
			lrows = append(lrows, r)
			if a := math.Abs(x[r]); a > bestAbs || exactEq(a, bestAbs) && r < best {
				bestAbs = a
				best = r
			}
		}
		if best < 0 || bestAbs < pivotTol {
			// Deficient column: clear and record.
			f.clearPattern(patt)
			failed = append(failed, int(kc))
			continue
		}
		k := npiv
		// Emit U column k: entries at already-pivoted rows, in pivot order.
		for _, t := range upos {
			if v := x[f.prow[t]]; v != 0 {
				f.uRow = append(f.uRow, t)
				f.uVal = append(f.uVal, v)
			}
		}
		f.uPtr = append(f.uPtr, int32(len(f.uRow)))
		piv := x[best]
		f.udiag = append(f.udiag, piv)
		// Emit L column k: remaining unpivoted rows in row order, scaled by
		// the pivot.
		slices.Sort(lrows)
		for _, r := range lrows {
			if r != best {
				f.lRow = append(f.lRow, r) // original row, remapped later
				f.lVal = append(f.lVal, x[r]/piv)
			}
		}
		f.lPtr = append(f.lPtr, int32(len(f.lRow)))
		f.clearPattern(patt)
		f.prow[k] = best
		f.pinv[best] = int32(k)
		f.cq[k] = kc
		npiv++
	}
	f.patt, f.heap, f.upos, f.lrows = patt, heap, upos, lrows
	if npiv < m {
		var unp []int
		for i := 0; i < m; i++ {
			if f.pinv[i] < 0 {
				unp = append(unp, i)
			}
		}
		return &SingularError{FailedPositions: failed, UnpivotedRows: unp}
	}
	// Remap L row indices from original rows to pivot coordinates. Entries
	// were appended while their rows were still unpivoted, so they hold
	// original indices; every row has a pivot position now.
	for q := range f.lRow {
		f.lRow[q] = f.pinv[f.lRow[q]]
	}
	return nil
}

// clearPattern zeroes the accumulator and the marks on the given pattern.
func (f *Factor) clearPattern(patt []int32) {
	for _, r := range patt {
		f.work[r] = 0
		f.mark[r] = false
	}
}

// heapPush adds v to the binary min-heap h.
func heapPush(h []int32, v int32) []int32 {
	h = append(h, v)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p] <= v {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = v
	return h
}

// heapPop removes and returns the minimum of the non-empty min-heap h.
func heapPop(h []int32) (int32, []int32) {
	top := h[0]
	n := len(h) - 1
	v := h[n]
	h = h[:n]
	if n == 0 {
		return top, h
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1] < h[c] {
			c++
		}
		if v <= h[c] {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = v
	return top, h
}

// NumEtas returns the number of basis updates accumulated since the last
// Factorize.
func (f *Factor) NumEtas() int { return len(f.etas) }

// M returns the dimension of the factorized matrix.
func (f *Factor) M() int { return f.m }

// Update appends a product-form eta recording that basis position r was
// replaced by a column whose FTRAN image (B⁻¹ a) is the dense vector w.
// It returns an error if the pivot element w[r] is too small to be stable.
func (f *Factor) Update(r int, w []float64, pivotTol float64) error {
	wr := w[r]
	if math.Abs(wr) < pivotTol {
		return fmt.Errorf("lp: eta pivot %.3e below tolerance at position %d", wr, r)
	}
	lo := int32(len(f.etaRow))
	for i, v := range w {
		if i != r && v != 0 {
			f.etaRow = append(f.etaRow, int32(i))
			f.etaVal = append(f.etaVal, v)
		}
	}
	f.etas = append(f.etas, eta{r: int32(r), lo: lo, hi: int32(len(f.etaRow)), wr: wr})
	return nil
}

// Ftran solves B x = b in place: on entry b holds the right-hand side, on
// exit it holds x. b must have length M().
func (f *Factor) Ftran(b []float64) {
	m := f.m
	z := f.work2
	// z = P b
	for k := 0; k < m; k++ {
		z[k] = b[f.prow[k]]
	}
	// L z = z (unit diagonal, column-oriented forward substitution)
	for k := 0; k < m; k++ {
		zk := z[k]
		if zk == 0 {
			continue
		}
		s, e := f.lPtr[k], f.lPtr[k+1]
		for q := s; q < e; q++ {
			z[f.lRow[q]] -= f.lVal[q] * zk
		}
	}
	// U w = z (column-oriented backward substitution)
	for k := m - 1; k >= 0; k-- {
		wk := z[k] / f.udiag[k]
		z[k] = wk
		if wk == 0 {
			continue
		}
		s, e := f.uPtr[k], f.uPtr[k+1]
		for q := s; q < e; q++ {
			z[f.uRow[q]] -= f.uVal[q] * wk
		}
	}
	// x[cq[k]] = w[k]
	for k := 0; k < m; k++ {
		b[f.cq[k]] = z[k]
	}
	// Apply etas in order: x ← E x with (Ex)_r = x_r/wr, (Ex)_i = x_i − w_i·x_r/wr.
	for idx := range f.etas {
		et := &f.etas[idx]
		xr := b[et.r]
		if xr == 0 {
			continue
		}
		t := xr / et.wr
		b[et.r] = t
		vals := f.etaVal[et.lo:et.hi]
		for q, row := range f.etaRow[et.lo:et.hi] {
			b[row] -= vals[q] * t
		}
	}
}

// Btran solves Bᵀ y = c in place: on entry c holds the right-hand side, on
// exit it holds y. c must have length M().
func (f *Factor) Btran(c []float64) {
	m := f.m
	// Apply eta transposes in reverse: y_r ← (y_r − Σ_{i≠r} w_i y_i)/wr.
	for idx := len(f.etas) - 1; idx >= 0; idx-- {
		et := &f.etas[idx]
		acc := 0.0
		vals := f.etaVal[et.lo:et.hi]
		for q, row := range f.etaRow[et.lo:et.hi] {
			acc += vals[q] * c[row]
		}
		c[et.r] = (c[et.r] - acc) / et.wr
	}
	z := f.work2
	// c' = Qᵀ c: c'[k] = c[cq[k]]
	for k := 0; k < m; k++ {
		z[k] = c[f.cq[k]]
	}
	// Uᵀ z = c' (forward, gather over U columns)
	for k := 0; k < m; k++ {
		acc := z[k]
		s, e := f.uPtr[k], f.uPtr[k+1]
		for q := s; q < e; q++ {
			acc -= f.uVal[q] * z[f.uRow[q]]
		}
		z[k] = acc / f.udiag[k]
	}
	// Lᵀ w = z (backward, gather over L columns; unit diagonal)
	for k := m - 1; k >= 0; k-- {
		acc := z[k]
		s, e := f.lPtr[k], f.lPtr[k+1]
		for q := s; q < e; q++ {
			acc -= f.lVal[q] * z[f.lRow[q]]
		}
		z[k] = acc
	}
	// P y = w → y[prow[k]] = w[k]
	for k := 0; k < m; k++ {
		c[f.prow[k]] = z[k]
	}
}
