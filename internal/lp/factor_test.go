package lp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// denseSolve solves A x = b by Gaussian elimination with partial pivoting,
// used as an oracle for Factor.
func denseSolve(a [][]float64, b []float64) []float64 {
	m := len(a)
	A := make([][]float64, m)
	for i := range A {
		A[i] = append([]float64(nil), a[i]...)
		A[i] = append(A[i], b[i])
	}
	for c := 0; c < m; c++ {
		p := c
		for r := c + 1; r < m; r++ {
			if math.Abs(A[r][c]) > math.Abs(A[p][c]) {
				p = r
			}
		}
		A[c], A[p] = A[p], A[c]
		for r := c + 1; r < m; r++ {
			f := A[r][c] / A[c][c]
			if f == 0 {
				continue
			}
			for k := c; k <= m; k++ {
				A[r][k] -= f * A[c][k]
			}
		}
	}
	x := make([]float64, m)
	for i := m - 1; i >= 0; i-- {
		s := A[i][m]
		for k := i + 1; k < m; k++ {
			s -= A[i][k] * x[k]
		}
		x[i] = s / A[i][i]
	}
	return x
}

// randomSparseMatrix builds an m×m matrix that is nonsingular with high
// probability: a permuted diagonal plus random off-diagonal entries.
func randomSparseMatrix(rng *rand.Rand, m int) [][]float64 {
	a := make([][]float64, m)
	for i := range a {
		a[i] = make([]float64, m)
	}
	perm := rng.Perm(m)
	for i := 0; i < m; i++ {
		a[i][perm[i]] = 1 + rng.Float64()*4
	}
	extra := m * 2
	for k := 0; k < extra; k++ {
		a[rng.Intn(m)][rng.Intn(m)] += rng.NormFloat64()
	}
	return a
}

func columnsOf(a [][]float64) basisColumn {
	m := len(a)
	return func(k int) ([]int32, []float64) {
		var rows []int32
		var vals []float64
		for i := 0; i < m; i++ {
			if a[i][k] != 0 {
				rows = append(rows, int32(i))
				vals = append(vals, a[i][k])
			}
		}
		return rows, vals
	}
}

func maxAbsDiff(a, b []float64) float64 {
	var worst float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

func TestFactorFtranBtranRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		m := 1 + rng.Intn(25)
		a := randomSparseMatrix(rng, m)
		var f Factor
		if err := f.Factorize(m, columnsOf(a), 1e-10); err != nil {
			t.Fatalf("trial %d: factorize: %v", trial, err)
		}
		b := make([]float64, m)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		want := denseSolve(a, b)
		got := append([]float64(nil), b...)
		f.Ftran(got)
		if d := maxAbsDiff(got, want); d > 1e-6 {
			t.Fatalf("trial %d (m=%d): Ftran diff %g", trial, m, d)
		}
		// Bᵀy = c: oracle solves with transposed matrix.
		at := make([][]float64, m)
		for i := range at {
			at[i] = make([]float64, m)
			for j := 0; j < m; j++ {
				at[i][j] = a[j][i]
			}
		}
		wantY := denseSolve(at, b)
		gotY := append([]float64(nil), b...)
		f.Btran(gotY)
		if d := maxAbsDiff(gotY, wantY); d > 1e-6 {
			t.Fatalf("trial %d (m=%d): Btran diff %g", trial, m, d)
		}
	}
}

func TestFactorSingular(t *testing.T) {
	// Two identical columns.
	a := [][]float64{
		{1, 1, 0},
		{2, 2, 1},
		{0, 0, 3},
	}
	var f Factor
	err := f.Factorize(3, columnsOf(a), 1e-10)
	if !errors.Is(err, ErrSingular) {
		t.Fatalf("want ErrSingular, got %v", err)
	}
	var se *SingularError
	if !errors.As(err, &se) {
		t.Fatalf("want *SingularError, got %T", err)
	}
	if len(se.FailedPositions) != 1 || len(se.UnpivotedRows) != 1 {
		t.Fatalf("unexpected deficiency detail: %+v", se)
	}
}

func TestFactorZeroMatrix(t *testing.T) {
	a := [][]float64{{0, 0}, {0, 0}}
	var f Factor
	if err := f.Factorize(2, columnsOf(a), 1e-10); !errors.Is(err, ErrSingular) {
		t.Fatalf("want ErrSingular, got %v", err)
	}
}

func TestFactorUpdateMatchesRefactorization(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		m := 2 + rng.Intn(20)
		a := randomSparseMatrix(rng, m)
		var f Factor
		if err := f.Factorize(m, columnsOf(a), 1e-10); err != nil {
			t.Fatalf("factorize: %v", err)
		}
		// Replace a few columns one at a time via eta updates.
		for upd := 0; upd < 3; upd++ {
			// Retry column generation until B⁻¹a has a healthy pivot at r:
			// a zero there means the replacement would be singular, which
			// the simplex never attempts.
			var r int
			var newCol, w []float64
			for {
				r = rng.Intn(m)
				newCol = make([]float64, m)
				for i := range newCol {
					if rng.Intn(3) == 0 {
						newCol[i] = rng.NormFloat64()
					}
				}
				newCol[r] += 2 + rng.Float64()
				w = append([]float64(nil), newCol...)
				f.Ftran(w)
				if math.Abs(w[r]) > 1e-3 {
					break
				}
			}
			if err := f.Update(r, w, 1e-10); err != nil {
				t.Fatalf("update: %v", err)
			}
			for i := 0; i < m; i++ {
				a[i][r] = newCol[i]
			}
			// Check Ftran and Btran against a dense solve of the updated matrix.
			b := make([]float64, m)
			for i := range b {
				b[i] = rng.NormFloat64()
			}
			want := denseSolve(a, b)
			got := append([]float64(nil), b...)
			f.Ftran(got)
			if d := maxAbsDiff(got, want); d > 1e-5 {
				t.Fatalf("trial %d upd %d: Ftran after update diff %g", trial, upd, d)
			}
			at := make([][]float64, m)
			for i := range at {
				at[i] = make([]float64, m)
				for j := 0; j < m; j++ {
					at[i][j] = a[j][i]
				}
			}
			wantY := denseSolve(at, b)
			gotY := append([]float64(nil), b...)
			f.Btran(gotY)
			if d := maxAbsDiff(gotY, wantY); d > 1e-5 {
				t.Fatalf("trial %d upd %d: Btran after update diff %g", trial, upd, d)
			}
		}
		if f.NumEtas() != 3 {
			t.Fatalf("want 3 etas, got %d", f.NumEtas())
		}
	}
}

func TestFactorUpdateRejectsTinyPivot(t *testing.T) {
	a := [][]float64{{1, 0}, {0, 1}}
	var f Factor
	if err := f.Factorize(2, columnsOf(a), 1e-10); err != nil {
		t.Fatal(err)
	}
	w := []float64{0, 1e-12}
	if err := f.Update(1, w, 1e-8); err == nil {
		t.Fatal("want error for tiny eta pivot")
	}
}

// denseFactorize is the dense-scan left-looking LU that Factor.Factorize
// replaced: it scans all m rows to pick each pivot and to emit each L column
// and walks every earlier pivot position per column. Factorize must produce
// bit-identical factors, so the simplex pivot path cannot move.
func denseFactorize(f *Factor, m int, col basisColumn, pivotTol float64) error {
	f.m = m
	f.lPtr, f.lRow, f.lVal = []int32{0}, nil, nil
	f.uPtr, f.uRow, f.uVal, f.udiag = []int32{0}, nil, nil, nil
	f.prow = make([]int32, m)
	f.pinv = make([]int32, m)
	f.cq = make([]int32, m)
	for i := range f.pinv {
		f.pinv[i] = -1
	}
	order := make([]int32, m)
	counts := make([]int32, m)
	for k := 0; k < m; k++ {
		order[k] = int32(k)
		rows, _ := col(k)
		counts[k] = int32(len(rows))
	}
	sort.SliceStable(order, func(a, b int) bool { return counts[order[a]] < counts[order[b]] })
	x := make([]float64, m)
	var failed []int
	npiv := 0
	for _, kc := range order {
		rows, vals := col(int(kc))
		for i, r := range rows {
			x[r] = vals[i]
		}
		for t := 0; t < npiv; t++ {
			xv := x[f.prow[t]]
			if xv == 0 {
				continue
			}
			for q := f.lPtr[t]; q < f.lPtr[t+1]; q++ {
				x[f.lRow[q]] -= f.lVal[q] * xv
			}
		}
		var best int32 = -1
		bestAbs := 0.0
		for i := 0; i < m; i++ {
			if x[i] != 0 && f.pinv[i] < 0 {
				if a := math.Abs(x[i]); a > bestAbs {
					bestAbs = a
					best = int32(i)
				}
			}
		}
		if best < 0 || bestAbs < pivotTol {
			for i := range x {
				x[i] = 0
			}
			failed = append(failed, int(kc))
			continue
		}
		k := npiv
		for t := 0; t < k; t++ {
			pr := f.prow[t]
			if v := x[pr]; v != 0 {
				f.uRow = append(f.uRow, int32(t))
				f.uVal = append(f.uVal, v)
				x[pr] = 0
			}
		}
		f.uPtr = append(f.uPtr, int32(len(f.uRow)))
		piv := x[best]
		f.udiag = append(f.udiag, piv)
		x[best] = 0
		for i := 0; i < m; i++ {
			if x[i] != 0 {
				f.lRow = append(f.lRow, int32(i))
				f.lVal = append(f.lVal, x[i]/piv)
				x[i] = 0
			}
		}
		f.lPtr = append(f.lPtr, int32(len(f.lRow)))
		f.prow[k] = best
		f.pinv[best] = int32(k)
		f.cq[k] = kc
		npiv++
	}
	if npiv < m {
		var unp []int
		for i := 0; i < m; i++ {
			if f.pinv[i] < 0 {
				unp = append(unp, i)
			}
		}
		return &SingularError{FailedPositions: failed, UnpivotedRows: unp}
	}
	for q := range f.lRow {
		f.lRow[q] = f.pinv[f.lRow[q]]
	}
	return nil
}

// sameFloatBits reports whether a and b hold the same IEEE-754 bit patterns.
func sameFloatBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// diffFactors describes the first difference between two factorizations,
// or returns "" when every factor array matches bit for bit. prow and cq
// are compared over the pivoted positions only: past them a reused Factor
// keeps stale entries that no solve reads.
func diffFactors(got, want *Factor) string {
	np := len(want.udiag)
	ints := []struct {
		name      string
		got, want []int32
	}{
		{"lPtr", got.lPtr, want.lPtr}, {"lRow", got.lRow, want.lRow},
		{"uPtr", got.uPtr, want.uPtr}, {"uRow", got.uRow, want.uRow},
		{"pinv", got.pinv, want.pinv},
		{"prow", got.prow[:min(np, len(got.prow))], want.prow[:np]},
		{"cq", got.cq[:min(np, len(got.cq))], want.cq[:np]},
	}
	for _, c := range ints {
		if !slices.Equal(c.got, c.want) {
			return fmt.Sprintf("%s: got %v want %v", c.name, c.got, c.want)
		}
	}
	floats := []struct {
		name      string
		got, want []float64
	}{
		{"lVal", got.lVal, want.lVal}, {"uVal", got.uVal, want.uVal}, {"udiag", got.udiag, want.udiag},
	}
	for _, c := range floats {
		if !sameFloatBits(c.got, c.want) {
			return fmt.Sprintf("%s: got %v want %v", c.name, c.got, c.want)
		}
	}
	return ""
}

// Matrix families for the differential test. Each stresses one branch of
// the pivot and elimination logic.

// tieMatrix draws entries from {±1, ±2} so equal-magnitude pivot candidates
// are common and the lowest-row tie-break decides.
func tieMatrix(rng *rand.Rand, m int) [][]float64 {
	a := make([][]float64, m)
	for i := range a {
		a[i] = make([]float64, m)
	}
	perm := rng.Perm(m)
	vals := []float64{-2, -1, 1, 2}
	for i := 0; i < m; i++ {
		a[i][perm[i]] = vals[rng.Intn(4)]
	}
	for k := 0; k < 3*m; k++ {
		a[rng.Intn(m)][rng.Intn(m)] = vals[rng.Intn(4)]
	}
	return a
}

// cancelMatrix uses ±1 entries only: every multiplier is ±1 and every
// update is exact integer arithmetic, so eliminations cancel to exactly 0
// (and to structurally singular columns) often.
func cancelMatrix(rng *rand.Rand, m int) [][]float64 {
	a := make([][]float64, m)
	for i := range a {
		a[i] = make([]float64, m)
	}
	for k := 0; k < 3*m; k++ {
		a[rng.Intn(m)][rng.Intn(m)] = float64(2*rng.Intn(2) - 1)
	}
	return a
}

// singularMatrix zeroes a column, duplicates another and empties a row.
func singularMatrix(rng *rand.Rand, m int) [][]float64 {
	a := randomSparseMatrix(rng, m)
	if m < 3 {
		return a
	}
	z, d, src, row := rng.Intn(m), rng.Intn(m), rng.Intn(m), rng.Intn(m)
	for i := 0; i < m; i++ {
		a[i][z] = 0
		if rng.Intn(2) == 0 {
			a[i][d] = a[i][src]
		}
	}
	if rng.Intn(2) == 0 {
		for j := 0; j < m; j++ {
			a[row][j] = 0
		}
	}
	return a
}

// nearTriangularMatrix mimics the simplex bases of the NIDS formulations:
// a permuted lower-triangular matrix with many −1 logical columns and a
// few entries above the diagonal.
func nearTriangularMatrix(rng *rand.Rand, m int) [][]float64 {
	a := make([][]float64, m)
	for i := range a {
		a[i] = make([]float64, m)
	}
	rp, cp := rng.Perm(m), rng.Perm(m)
	for j := 0; j < m; j++ {
		if rng.Intn(3) == 0 {
			a[rp[j]][cp[j]] = -1
			continue
		}
		a[rp[j]][cp[j]] = 0.5 + rng.Float64()
		for i := j + 1; i < m; i++ {
			if rng.Intn(4) == 0 {
				a[rp[i]][cp[j]] = rng.NormFloat64()
			}
		}
	}
	for k := 0; k < m/4; k++ {
		a[rng.Intn(m)][rng.Intn(m)] = rng.NormFloat64()
	}
	return a
}

func TestFactorizeMatchesDenseReference(t *testing.T) {
	families := []struct {
		name string
		gen  func(*rand.Rand, int) [][]float64
	}{
		{"random", randomSparseMatrix},
		{"ties", tieMatrix},
		{"cancel", cancelMatrix},
		{"singular", singularMatrix},
		{"triangular", nearTriangularMatrix},
	}
	rng := rand.New(rand.NewSource(11))
	var reused Factor // carries scratch across trials and sizes
	singular := 0
	for _, fam := range families {
		for trial := 0; trial < 150; trial++ {
			m := 1 + rng.Intn(40)
			a := fam.gen(rng, m)
			var want Factor
			wantErr := denseFactorize(&want, m, columnsOf(a), 1e-10)
			for _, f := range []*Factor{new(Factor), &reused} {
				err := f.Factorize(m, columnsOf(a), 1e-10)
				if !reflect.DeepEqual(err, wantErr) {
					t.Fatalf("%s trial %d (m=%d): error %v, reference %v", fam.name, trial, m, err, wantErr)
				}
				if d := diffFactors(f, &want); d != "" {
					t.Fatalf("%s trial %d (m=%d): %s", fam.name, trial, m, d)
				}
			}
			if wantErr != nil {
				singular++
			}
		}
	}
	if singular < 100 {
		t.Errorf("only %d singular cases; the singular paths are under-tested", singular)
	}
}

func TestFactorAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := 60
	a := nearTriangularMatrix(rng, m)
	col := columnsOf(a)
	rows := make([][]int32, m)
	vals := make([][]float64, m)
	for k := 0; k < m; k++ {
		rows[k], vals[k] = col(k)
	}
	cols := func(k int) ([]int32, []float64) { return rows[k], vals[k] }
	w := make([]float64, m)
	var f Factor
	allocs := testing.AllocsPerRun(20, func() {
		if err := f.Factorize(m, cols, 1e-10); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 8; r++ {
			for i := range w {
				w[i] = float64(i%3) * 0.5
			}
			w[r] = 1
			if err := f.Update(r, w, 1e-10); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Factorize+Update allocates %.1f times per run", allocs)
	}
}

func BenchmarkFactorize500(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	m := 500
	a := randomSparseMatrix(rng, m)
	col := columnsOf(a)
	// Pre-extract columns so the benchmark measures factorization only.
	rows := make([][]int32, m)
	vals := make([][]float64, m)
	for k := 0; k < m; k++ {
		r, v := col(k)
		rows[k] = r
		vals[k] = v
	}
	var f Factor
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Factorize(m, func(k int) ([]int32, []float64) { return rows[k], vals[k] }, 1e-10); err != nil {
			b.Fatal(err)
		}
	}
}
