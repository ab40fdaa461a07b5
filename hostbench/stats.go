package main

import (
	"encoding/json"
	"os"
	"slices"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (the default "exclusive" method),
// so the spreads reported here match ones computed from the same values
// in Python.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

// span is one timed interval at a layer boundary the harness drives.
// Parent 0 marks a root span; Self is the duration not covered by child
// spans.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// spans keeps the traced pass's spans in memory until the run ends.
type spans struct {
	t0   time.Time
	list []span
}

func newSpans() *spans { return &spans{t0: time.Now()} }

func (s *spans) begin(name string, parent int) int {
	s.list = append(s.list, span{ID: len(s.list) + 1, Parent: parent, Name: name, Start: time.Since(s.t0).Nanoseconds()})
	return len(s.list)
}

func (s *spans) end(id int) { s.list[id-1].End = time.Since(s.t0).Nanoseconds() }

// adopt appends another process's spans, numbered and timed from their
// own zero, under parent: their ids move past the ones s holds and their
// times by offset ns.
func (s *spans) adopt(parent int, offset int64, list []span) {
	base := len(s.list)
	for _, sp := range list {
		sp.ID += base
		if sp.Parent == 0 {
			sp.Parent = parent
		} else {
			sp.Parent += base
		}
		sp.Start += offset
		sp.End += offset
		s.list = append(s.list, sp)
	}
}

// selfTimes fills in each span's self time.
func (s *spans) selfTimes() {
	for i := range s.list {
		s.list[i].Self = s.list[i].End - s.list[i].Start
	}
	for _, sp := range s.list {
		if sp.Parent != 0 {
			s.list[sp.Parent-1].Self -= sp.End - sp.Start
		}
	}
}

// write stores the spans, with self times, as a JSON array.
func (s *spans) write(path string) error {
	s.selfTimes()
	buf, err := json.Marshal(s.list)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
