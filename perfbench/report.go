package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
)

// errWrongAnswer marks an answer of the system under test that disagrees
// with the oracle. It fails the run; it is never counted as a failed
// request.
var errWrongAnswer = errors.New("wrong answer")

func wrongf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errWrongAnswer, fmt.Sprintf(format, args...))
}

// metric is one reported number with its unit and sample count.
type metric struct {
	name, unit string
	value      float64
	n          int    // samples behind value
	note       string // e.g. the percentile actually reported
}

// report is one run's result.
type report struct {
	correct           bool
	attempted, failed int
	metrics           []metric
}

func (r *report) add(name, unit string, value float64, n int, note string) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: value, n: n, note: note})
}

// print writes one line per metric, then the result object as the last
// line.
func (r *report) print(w io.Writer) error {
	for _, m := range r.metrics {
		line := fmt.Sprintf("%-32s %16.6f %-6s n=%d", m.name, m.value, m.unit, m.n)
		if m.note != "" {
			line += "  (" + m.note + ")"
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, make(map[string]value, len(r.metrics))}
	for _, m := range r.metrics {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
