package main

import (
	"sort"
	"strings"
	"time"

	"nwids/internal/obs"
)

// selfRow aggregates the spans of one name: how many, their total time,
// and their self time (span time minus the part its child spans cover).
type selfRow struct {
	Layer  string  `json:"layer"`
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// layerOf maps a span name to its layer (module): the program's solve
// spans belong to core and lp, the benchmark's own spans to perfbench, and
// every other span is named after the package it times.
func layerOf(name string) string {
	switch name {
	case "replication.solve", "model.build", "extract":
		return "core"
	case "perfbench", "pass", "perfbench.setup", "perfbench.route":
		return "perfbench"
	}
	layer, _, _ := strings.Cut(name, ".")
	if layer == "pass" {
		return "perfbench"
	}
	return layer
}

// spanParents returns each span's parent ID. The program's own root spans
// (the replication solve, which opens on the tracer rather than under the
// caller's span) are attached to the innermost span whose interval holds
// theirs, so their time counts as a child of the call that made them.
func spanParents(spans []obs.SpanRecord) map[uint64]uint64 {
	parent := make(map[uint64]uint64, len(spans))
	for _, s := range spans {
		parent[s.ID] = s.Parent
		if s.Parent != 0 {
			continue
		}
		var best *obs.SpanRecord
		for i := range spans {
			c := &spans[i]
			if c.ID == s.ID || c.Start.After(s.Start) || c.End.Before(s.End) {
				continue
			}
			if best == nil || c.End.Sub(c.Start) < best.End.Sub(best.Start) {
				best = c
			}
		}
		if best != nil {
			parent[s.ID] = best.ID
		}
	}
	return parent
}

// selfTimes returns each span's self time: its duration minus the union of
// its children's intervals clipped to it.
func selfTimes(spans []obs.SpanRecord) map[uint64]time.Duration {
	parent := spanParents(spans)
	byID := make(map[uint64]obs.SpanRecord, len(spans))
	children := map[uint64][]obs.SpanRecord{}
	for _, s := range spans {
		byID[s.ID] = s
		if p := parent[s.ID]; p != 0 {
			children[p] = append(children[p], s)
		}
	}
	self := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start.Before(kids[j].Start) })
		var covered time.Duration
		cur := s.Start // end of the covered prefix
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo.Before(cur) {
				lo = cur
			}
			if hi.After(s.End) {
				hi = s.End
			}
			if hi.After(lo) {
				covered += hi.Sub(lo)
				cur = hi
			}
		}
		self[s.ID] = s.End.Sub(s.Start) - covered
	}
	return self
}

// selfTable aggregates self times by span name, ordered by layer then
// descending self time.
func selfTable(spans []obs.SpanRecord) []selfRow {
	self := selfTimes(spans)
	rows := map[string]*selfRow{}
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &selfRow{Layer: layerOf(s.Name), Name: s.Name}
			rows[s.Name] = r
		}
		r.Count++
		r.TotalS += s.End.Sub(s.Start).Seconds()
		r.SelfS += self[s.ID].Seconds()
	}
	out := make([]selfRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Layer != out[j].Layer {
			return out[i].Layer < out[j].Layer
		}
		if out[i].SelfS != out[j].SelfS {
			return out[i].SelfS > out[j].SelfS
		}
		return out[i].Name < out[j].Name
	})
	return out
}
