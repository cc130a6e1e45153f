package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// quantile returns the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// metric is one reported number. Samples is the count behind a
// percentile (0 for metrics that are not percentiles).
type metric struct {
	Name    string
	Value   float64
	Unit    string
	Samples int
}

// report is what one run prints.
type report struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   []metric
	Notes     []string // human-readable lines printed before the result
}

func (r *report) add(name string, v float64, unit string) {
	r.Metrics = append(r.Metrics, metric{Name: name, Value: v, Unit: unit})
}

func (r *report) addN(name string, v float64, unit string, samples int) {
	r.Metrics = append(r.Metrics, metric{Name: name, Value: v, Unit: unit, Samples: samples})
}

func (r *report) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// write prints a readable table (with the sample count behind every
// percentile) and then, as the last line, the one-line JSON result.
func (r *report) write(w io.Writer) error {
	for _, n := range r.Notes {
		fmt.Fprintln(w, n)
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]val, len(r.Metrics))
	for _, m := range r.Metrics {
		if m.Samples > 0 {
			fmt.Fprintf(w, "%-34s %14.6g %-6s (n=%d)\n", m.Name, m.Value, m.Unit, m.Samples)
		} else {
			fmt.Fprintf(w, "%-34s %14.6g %s\n", m.Name, m.Value, m.Unit)
		}
		v := m.Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		ms[m.Name] = val{Value: v, Unit: m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// latencies collects per-operation times in milliseconds.
type latencies []float64

func (l latencies) sorted() []float64 {
	s := append([]float64(nil), l...)
	sort.Float64s(s)
	return s
}
