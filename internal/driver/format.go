package driver

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"time"
)

// ms renders a duration as fractional milliseconds, the unit of the
// paper's result tables.
func ms(d time.Duration) string {
	return strconv.FormatFloat(float64(d)/float64(time.Millisecond), 'f', 3, 64)
}

// WriteTable renders reports as the human-readable scaling table: one
// summary row per step, then per-query latency cells of the last
// (highest-concurrency) step. A sweep over update fractions also gets the
// aggregate read latency per step — what the updates do to reads as a
// population.
func WriteTable(w io.Writer, reports []Report) {
	if len(reports) == 0 {
		return
	}
	r0 := reports[0]
	mixed, fractionSweep := false, false
	for _, r := range reports {
		if r.Updates > 0 {
			mixed = true
		}
		if r.UpdateFraction != r0.UpdateFraction {
			fractionSweep = true
		}
	}
	fmt.Fprintf(w, "Throughput: %s on %s (closed loop, %d query types in mix)\n",
		r0.Engine, r0.Class, len(r0.Mix))
	if mixed {
		fmt.Fprintf(w, "%-8s %-10s %-8s %-8s %-6s %-9s %-10s\n", "clients", "qps", "ops", "updates", "errs", "canceled", "elapsed")
		for _, r := range reports {
			fmt.Fprintf(w, "%-8d %-10.1f %-8d %-8d %-6d %-9d %-10s\n",
				r.Clients, r.Throughput, r.Ops, r.Updates, r.Errs, r.Canceled, r.Elapsed.Round(time.Millisecond))
		}
	} else {
		fmt.Fprintf(w, "%-8s %-10s %-8s %-6s %-9s %-10s\n", "clients", "qps", "ops", "errs", "canceled", "elapsed")
		for _, r := range reports {
			fmt.Fprintf(w, "%-8d %-10.1f %-8d %-6d %-9d %-10s\n",
				r.Clients, r.Throughput, r.Ops, r.Errs, r.Canceled, r.Elapsed.Round(time.Millisecond))
		}
	}
	if fractionSweep {
		fmt.Fprintf(w, "\nRead latency vs update fraction:\n")
		fmt.Fprintf(w, "%-8s %-8s %12s %12s %10s\n", "updates", "clients", "read p50", "read p99", "qps")
		for _, r := range reports {
			fmt.Fprintf(w, "%-8s %-8d %12s %12s %10.1f\n", fmt.Sprintf("%.0f%%", r.UpdateFraction*100),
				r.Clients, r.ReadP50, r.ReadP99, r.Throughput)
		}
	}
	last := reports[len(reports)-1]
	fmt.Fprintf(w, "\nPer-query latency at %d clients (ms):\n", last.Clients)
	fmt.Fprintf(w, "%-6s %-8s %-10s %-10s %-10s %-10s\n", "query", "count", "mean", "p50", "p95", "p99")
	for _, c := range last.Cells {
		fmt.Fprintf(w, "%-6s %-8d %-10s %-10s %-10s %-10s\n",
			c.Query, c.Count, ms(c.Mean), ms(c.P50), ms(c.P95), ms(c.P99))
	}
	if len(last.UpdateCells) > 0 {
		fmt.Fprintf(w, "\nPer-update-op latency at %d clients (ms, the engine call alone):\n", last.Clients)
		fmt.Fprintf(w, "%-6s %-8s %-6s %-10s %-10s %-10s %-10s\n", "op", "count", "errs", "mean", "p50", "p95", "p99")
		for _, c := range last.UpdateCells {
			fmt.Fprintf(w, "%-6s %-8d %-6d %-10s %-10s %-10s %-10s\n",
				c.Update, c.Count, c.Errs, ms(c.Mean), ms(c.P50), ms(c.P95), ms(c.P99))
		}
	}
}

// WriteCSV renders one row per (client count, query) cell plus a summary
// row per client count (query column empty, latencies blank).
func WriteCSV(w io.Writer, reports []Report) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"engine", "class", "clients", "query", "count", "errs", "canceled",
		"qps", "mean_ms", "p50_ms", "p95_ms", "p99_ms",
	}); err != nil {
		return err
	}
	for _, r := range reports {
		row := []string{
			r.Engine, r.Class.String(), strconv.Itoa(r.Clients), "",
			strconv.FormatInt(r.Ops, 10), strconv.FormatInt(r.Errs, 10),
			strconv.FormatInt(r.Canceled, 10),
			strconv.FormatFloat(r.Throughput, 'f', 2, 64), "", "", "", "",
		}
		if err := cw.Write(row); err != nil {
			return err
		}
		// Update cells ride in the same schema, keyed by op name (U1..U3)
		// in the query column; only they fill the errs column.
		for _, cells := range [][]CellStats{r.Cells, r.UpdateCells} {
			for _, c := range cells {
				errs := ""
				if c.Update != 0 {
					errs = strconv.FormatInt(c.Errs, 10)
				}
				row := []string{
					r.Engine, r.Class.String(), strconv.Itoa(r.Clients), c.String(),
					strconv.FormatInt(c.Count, 10), errs, "", "",
					ms(c.Mean), ms(c.P50), ms(c.P95), ms(c.P99),
				}
				if err := cw.Write(row); err != nil {
					return err
				}
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// jsonReport is the machine-readable shape of a Report: enum-typed fields
// (class, query ids) render as their names and durations as fractional
// milliseconds, so consumers need no knowledge of the Go constants.
type jsonReport struct {
	Engine      string     `json:"engine"`
	Class       string     `json:"class"`
	Clients     int        `json:"clients"`
	Mix         []string   `json:"mix"`
	ElapsedMS   float64    `json:"elapsed_ms"`
	Ops         int64      `json:"ops"`
	Errs        int64      `json:"errs"`
	Canceled    int64      `json:"canceled"`
	Throughput  float64    `json:"qps"`
	Cells       []jsonCell `json:"cells"`
	ClientOps   []int      `json:"client_ops"`
	Updates     int64      `json:"updates,omitempty"`
	UpdateErrs  int64      `json:"update_errs,omitempty"`
	UpdateCells []jsonCell `json:"update_cells,omitempty"`
}

type jsonCell struct {
	Query  string  `json:"query"`
	Count  int64   `json:"count"`
	Errs   int64   `json:"errs,omitempty"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
}

func msf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func jsonCells(cells []CellStats) []jsonCell {
	out := make([]jsonCell, 0, len(cells))
	for _, c := range cells {
		out = append(out, jsonCell{
			Query: c.String(), Count: c.Count, Errs: c.Errs,
			MeanMS: msf(c.Mean), P50MS: msf(c.P50),
			P95MS: msf(c.P95), P99MS: msf(c.P99),
		})
	}
	return out
}

// WriteJSON renders the reports as an indented JSON array.
func WriteJSON(w io.Writer, reports []Report) error {
	out := make([]jsonReport, 0, len(reports))
	for _, r := range reports {
		jr := jsonReport{
			Engine:     r.Engine,
			Class:      r.Class.String(),
			Clients:    r.Clients,
			Mix:        make([]string, 0, len(r.Mix)),
			ElapsedMS:  msf(r.Elapsed),
			Ops:        r.Ops,
			Errs:       r.Errs,
			Canceled:   r.Canceled,
			Throughput: r.Throughput,
			Cells:      jsonCells(r.Cells),
			ClientOps:  r.ClientOps,
			Updates:    r.Updates,
			UpdateErrs: r.UpdateErrs,
			// Update cells reuse the query-cell shape with the op name
			// (U1..U3) in the query field.
			UpdateCells: jsonCells(r.UpdateCells),
		}
		for _, q := range r.Mix {
			jr.Mix = append(jr.Mix, q.String())
		}
		out = append(out, jr)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
