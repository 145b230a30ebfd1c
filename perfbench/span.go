package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer of the program, recorded from the
// benchmark's side of the call boundary.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for a root span
	Req    int64  `json:"req"`    // request / point / batch the span belongs to
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory; they are written out once, when the
// run ends. A nil *recorder is valid and records nothing, so untraced
// runs pay one nil check per boundary.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<14)}
}

// open starts a span at the given time and returns its id (-1 when
// tracing is off).
func (r *recorder) open(name string, parent int32, req int64, start time.Time) int32 {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(r.epoch).Nanoseconds(), End: -1})
	return id
}

// close ends an open span.
func (r *recorder) close(id int32, end time.Time) {
	if r == nil || id < 0 {
		return
	}
	r.mu.Lock()
	r.spans[id].End = end.Sub(r.epoch).Nanoseconds()
	r.mu.Unlock()
}

// timed records fn as one span, now to return.
func (r *recorder) timed(name string, parent int32, req int64, fn func()) time.Duration {
	start := time.Now()
	id := r.open(name, parent, req, start)
	fn()
	end := time.Now()
	r.close(id, end)
	return end.Sub(start)
}

// closed returns a copy of every finished span.
func (r *recorder) closed() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// spanStat aggregates every span of one name.
type spanStat struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration // Total minus the part its children cover
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the union of its children's intervals, clipped to the span.
func selfTimes(spans []span) []spanStat {
	kids := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	byName := make(map[string]*spanStat)
	for _, s := range spans {
		st := byName[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name}
			byName[s.Name] = st
		}
		st.Count++
		st.Total += s.dur()
		st.Self += s.dur() - covered(s, kids[s.ID])
	}
	out := make([]spanStat, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered is the length of the union of the children's intervals inside
// the parent's.
func covered(parent span, children []span) time.Duration {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	curLo, curHi = -1, -1
	for _, v := range iv {
		if v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	total += curHi - curLo
	return time.Duration(total)
}

// unaccountedShare is the share of the named decomposed spans' time that
// their children (or, for replayed decompositions, the named sibling
// spans) leave unexplained.
func unaccountedShare(stats []spanStat, root string) float64 {
	for _, st := range stats {
		if st.Name == root && st.Total > 0 {
			return float64(st.Self) / float64(st.Total)
		}
	}
	return 0
}

// writeSpans writes every span as one JSON object per line.
func writeSpans(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// printSpanTable renders the per-name aggregate for the human-readable
// part of the output.
func printSpanTable(w io.Writer, stats []spanStat) {
	for _, st := range stats {
		fmt.Fprintf(w, "# span %-28s n=%-6d total_ms=%.3f self_ms=%.3f\n",
			st.Name, st.Count, st.Total.Seconds()*1e3, st.Self.Seconds()*1e3)
	}
}
