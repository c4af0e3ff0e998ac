package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"github.com/stellar-repro/stellar/internal/azuretrace"
	"github.com/stellar-repro/stellar/internal/plot"
)

// WriteJSON writes v as indented JSON: the one encoder behind the sweeps'
// -json exports and the commands' -bench-json metrics.
func WriteJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// WriteFigureReport renders a figure as text: per-series paper-vs-measured
// medians/tails plus an ASCII CDF chart.
func WriteFigureReport(w io.Writer, fig *Figure) error {
	fmt.Fprintf(w, "## %s — %s\n\n", fig.ID, fig.Title)
	for _, note := range fig.Notes {
		fmt.Fprintf(w, "note: %s\n", note)
	}
	fmt.Fprintf(w, "\n%-30s %12s %12s %12s %12s %7s\n",
		"series", "median", "paper-med", "p99", "paper-p99", "tmr")
	for _, s := range fig.Series {
		sum := s.Summary()
		fmt.Fprintf(w, "%-30s %12v %12s %12v %12s %7.1f\n",
			s.Label, sum.Median.Round(time.Millisecond), refStr(s.Paper.Median),
			sum.P99.Round(time.Millisecond), refStr(s.Paper.P99), sum.TMR)
	}
	fmt.Fprintln(w)
	series := make([]plot.Series, 0, len(fig.Series))
	for _, s := range fig.Series {
		series = append(series, plot.Series{Label: s.Label, Sample: s.Latencies})
	}
	// Very wide figures (e.g., full Fig. 8) chart better per provider
	// group; keep a single chart for up to eight series.
	if len(series) <= 8 {
		if err := plot.CDF(w, "CDF", series, 72, 18); err != nil {
			return err
		}
	}
	fmt.Fprintln(w)
	return nil
}

func refStr(d time.Duration) string {
	if d == 0 {
		return "-"
	}
	return d.Round(time.Millisecond).String()
}

// WriteSweepReport renders a payload-sweep figure (Fig. 6a / 7a style):
// median and p99 against the swept parameter, grouped per provider prefix.
func WriteSweepReport(w io.Writer, fig *Figure, xName string) error {
	groups := map[string]*plot.XYSeries{}
	var order []string
	for _, s := range fig.Series {
		prefix := strings.Fields(s.Label)[0]
		g, ok := groups[prefix]
		if !ok {
			g = &plot.XYSeries{Label: prefix}
			groups[prefix] = g
			order = append(order, prefix)
		}
		sum := s.Summary()
		g.Points = append(g.Points, plot.XYPoint{X: s.X, Median: sum.Median, P99: sum.P99})
	}
	sort.Strings(order)
	series := make([]plot.XYSeries, 0, len(order))
	for _, prefix := range order {
		series = append(series, *groups[prefix])
	}
	return plot.Sweep(w, fig.Title, xName, series)
}

// WriteTable1Report renders the reproduced Table I next to the paper's
// values, flagging cells above the paper's >10 predictability threshold.
func WriteTable1Report(w io.Writer, t *Table1Result) {
	fmt.Fprintf(w, "## table1 — MR / TR per tail-latency factor (measured vs paper)\n\n")
	fmt.Fprintf(w, "%-20s", "factor")
	for _, prov := range AllProviders {
		fmt.Fprintf(w, " | %-21s", prov+"  MR/TR (paper)")
	}
	fmt.Fprintln(w)
	for _, row := range t.Rows {
		fmt.Fprintf(w, "%-20s", row.Factor)
		for _, prov := range AllProviders {
			cell := row.Cells[prov]
			if cell.NA {
				fmt.Fprintf(w, " | %-21s", "n/a")
				continue
			}
			flag := " "
			if cell.MR > 10 || cell.TR > 10 {
				flag = "!"
			}
			fmt.Fprintf(w, " |%s%3.0f/%-4.0f (%3.0f/%-4.0f)", flag, cell.MR, cell.TR, cell.PaperMR, cell.PaperTR)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "\nbase warm medians:")
	for _, prov := range AllProviders {
		fmt.Fprintf(w, "  %s=%v", prov, t.BaseMedians[prov].Round(time.Millisecond))
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "cells flagged '!' exceed the paper's MR/TR>10 predictability threshold")
}

// WriteFig10Report renders the trace-TMR analysis.
func WriteFig10Report(w io.Writer, r *Fig10Result) error {
	fmt.Fprintf(w, "## fig10 — %s\n\n", r.Figure.Title)
	fmt.Fprintf(w, "%-10s %18s %14s\n", "class", "P(TMR<10) meas", "paper")
	for _, c := range fig10Classes {
		fmt.Fprintf(w, "%-10s %18.2f %14.2f\n", c.class, r.FracBelow10[c.class], c.paperFrac)
	}
	fmt.Fprintf(w, "\nfunction-duration mix: <1s %.0f%%, 1-10s %.0f%%, >10s %.0f%%\n",
		100*azuretrace.ClassShare(r.Records, azuretrace.ClassSubSec),
		100*azuretrace.ClassShare(r.Records, azuretrace.ClassMidRange),
		100*azuretrace.ClassShare(r.Records, azuretrace.ClassLong))
	series := make([]plot.Series, 0, len(r.Figure.Series))
	for _, s := range r.Figure.Series {
		series = append(series, plot.Series{Label: s.Label, Sample: s.Latencies})
	}
	return plot.CDF(w, "TMR CDFs (axis = TMR*1000, dimensionless)", series, 72, 16)
}
