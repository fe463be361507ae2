package lp

// exactEq reports a == b with exact floating-point equality. It exists to
// centralize — and document — the few comparisons in the solver that are
// exact on purpose: variable and row bounds are copied verbatim from the
// problem (or propagated without arithmetic that could perturb equal
// inputs), so lo == hi is a structural "is this entry fixed/an equality
// row" test, not a numeric comparison of computed quantities. The LU pivot
// search uses it for its tie-break too: the sparse scan visits rows out of
// index order and must keep the same row a first-index scan would. exactEq
// is on nwidslint's floatcmp approved-helper list; other computed values
// must be compared with a tolerance instead.
func exactEq(a, b float64) bool { return a == b }
