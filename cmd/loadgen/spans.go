package main

import (
	"encoding/json"
	"net/http"
	"sort"
)

// traceDTO and spanDTO are the parts of GET /api/trace/{id} read here.
type traceDTO struct {
	Spans []spanDTO `json:"spans"`
}

type spanDTO struct {
	SpanID     string         `json:"span_id"`
	ParentID   string         `json:"parent_id"`
	Name       string         `json:"name"`
	StartMS    float64        `json:"start_ms"`
	DurationMS float64        `json:"duration_ms"`
	Events     []spanEventDTO `json:"events"`
}

type spanEventDTO struct {
	Name  string         `json:"name"`
	AtMS  float64        `json:"at_ms"`
	Attrs map[string]any `json:"attrs"`
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its children cover. Children may overlap each other
// (their union is subtracted once), may stick out of the parent (they are
// clipped to it), and may name a parent that is not in the list (they
// then reduce nobody's self time).
func selfTimes(spans []spanDTO) map[string]float64 {
	type iv struct{ lo, hi float64 }
	kids := map[string][]iv{}
	bounds := map[string]iv{}
	for _, s := range spans {
		bounds[s.SpanID] = iv{s.StartMS, s.StartMS + s.DurationMS}
	}
	for _, s := range spans {
		p, ok := bounds[s.ParentID]
		if s.ParentID == "" || !ok {
			continue
		}
		c := iv{max(s.StartMS, p.lo), min(s.StartMS+s.DurationMS, p.hi)}
		if c.hi > c.lo {
			kids[s.ParentID] = append(kids[s.ParentID], c)
		}
	}
	out := make(map[string]float64, len(spans))
	for _, s := range spans {
		ivs := kids[s.SpanID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		covered, end := 0.0, s.StartMS
		for _, c := range ivs {
			if c.hi <= end {
				continue
			}
			covered += c.hi - max(c.lo, end)
			end = c.hi
		}
		out[s.SpanID] = s.DurationMS - covered
	}
	return out
}

// root returns the trace's root span (no parent), or nil.
func (t *traceDTO) root() *spanDTO {
	for i := range t.Spans {
		if t.Spans[i].ParentID == "" {
			return &t.Spans[i]
		}
	}
	return nil
}

// tracedOp is one operation of a traced run: the trace ID the generator
// sent and how long the exchange took as the client saw it.
type tracedOp struct {
	id       string
	clientMS float64
}

// spanStats accumulates span durations and self times by span name, and
// the wire time (client-observed minus server root span) by root name.
type spanStats struct {
	dur    map[string][]float64 // span name -> durations, ms
	self   map[string][]float64 // span name -> self times, ms
	wire   map[string][]float64 // root span name -> client minus root, ms
	missed int                  // sampled IDs the recorder no longer had
}

func newSpanStats() *spanStats {
	return &spanStats{dur: map[string][]float64{}, self: map[string][]float64{}, wire: map[string][]float64{}}
}

func (st *spanStats) add(t traceDTO, clientMS float64) {
	self := selfTimes(t.Spans)
	for _, s := range t.Spans {
		st.dur[s.Name] = append(st.dur[s.Name], s.DurationMS)
		st.self[s.Name] = append(st.self[s.Name], self[s.SpanID])
	}
	if r := t.root(); r != nil && clientMS > 0 {
		st.wire[r.Name] = append(st.wire[r.Name], clientMS-r.DurationMS)
	}
}

// sampleOps picks at most limit operations, seeded, keeping their order.
func sampleOps(ops []tracedOp, limit int, r *rng) []tracedOp {
	if len(ops) <= limit {
		return ops
	}
	idx := make([]int, len(ops))
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < limit; i++ { // partial Fisher-Yates
		j := i + r.intn(len(idx)-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	pick := idx[:limit]
	sort.Ints(pick)
	out := make([]tracedOp, limit)
	for i, k := range pick {
		out[i] = ops[k]
	}
	return out
}

// fetchTraces reads back a seeded sample of the given operations' traces
// after the measured phase has ended. A trace the recorder dropped is
// counted, not failed: the eviction counters decide whether the sample is
// still usable.
func fetchTraces(c *client, st *spanStats, ops []tracedOp, limit int, r *rng) {
	for _, op := range sampleOps(ops, limit, r) {
		rep, ok := c.do(http.MethodGet, "/api/trace/"+op.id, nil, "")
		if !ok {
			continue
		}
		if rep.status != http.StatusOK {
			st.missed++
			continue
		}
		var t traceDTO
		if err := json.Unmarshal(rep.body, &t); err != nil {
			c.tally.fail("trace %s: %v", op.id, err)
			continue
		}
		st.add(t, op.clientMS)
	}
}
