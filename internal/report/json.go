package report

import (
	"encoding/json"
	"fmt"
	"io"

	"itr/internal/fault"
	"itr/internal/stats"
)

// JSON export of experiment results, so regenerated figures can be archived,
// diffed across runs, and consumed by external plotting tools. All types
// marshal through stable, documented shapes: the wire forms below, and the
// JSON tags of Table1Row, Headline, Figure9Row and PerfRow, whose fields
// already are their wire shape.

// SeriesJSON is the wire form of one figure series.
type SeriesJSON struct {
	Name   string    `json:"name"`
	X      []float64 `json:"x"`
	Y      []float64 `json:"y"`
	XLabel string    `json:"xLabel,omitempty"`
	YLabel string    `json:"yLabel,omitempty"`
}

// FigureJSON is the wire form of one regenerated figure.
type FigureJSON struct {
	ID     string       `json:"id"`    // e.g. "figure1"
	Title  string       `json:"title"` // paper caption
	Series []SeriesJSON `json:"series"`
}

// EncodeSeries converts stats series into the wire form.
func EncodeSeries(id, title, xLabel, yLabel string, series []stats.Series) FigureJSON {
	fig := FigureJSON{ID: id, Title: title}
	for _, s := range series {
		sj := SeriesJSON{Name: s.Name, XLabel: xLabel, YLabel: yLabel}
		for _, p := range s.Points {
			sj.X = append(sj.X, p.X)
			sj.Y = append(sj.Y, p.Y)
		}
		fig.Series = append(fig.Series, sj)
	}
	return fig
}

// CoverageJSON is the wire form of one Figures 6/7 cell.
type CoverageJSON struct {
	Benchmark     string  `json:"benchmark"`
	Config        string  `json:"config"`
	Entries       int     `json:"entries"`
	Assoc         int     `json:"assoc"`
	DetectionLoss float64 `json:"detectionLossPct"`
	RecoveryLoss  float64 `json:"recoveryLossPct"`
	TotalInsts    int64   `json:"totalInsts"`
}

// EncodeCoverage converts sweep cells into the wire form.
func EncodeCoverage(cells []CoverageCell) []CoverageJSON {
	out := make([]CoverageJSON, 0, len(cells))
	for _, c := range cells {
		out = append(out, CoverageJSON{
			Benchmark:     c.Benchmark,
			Config:        c.Config.String(),
			Entries:       c.Config.Entries,
			Assoc:         c.Config.Assoc,
			DetectionLoss: c.Result.DetectionLoss,
			RecoveryLoss:  c.Result.RecoveryLoss,
			TotalInsts:    c.Result.TotalInsts,
		})
	}
	return out
}

// CampaignJSON is the wire form of one Figure 8 row.
type CampaignJSON struct {
	Benchmark  string             `json:"benchmark"`
	Total      int                `json:"faults"`
	Categories map[string]float64 `json:"categoryPct"`
	Detected   float64            `json:"itrDetectedPct"`
}

// EncodeCampaigns converts Figure 8 rows into the wire form.
func EncodeCampaigns(rows []Figure8Row) []CampaignJSON {
	out := make([]CampaignJSON, 0, len(rows))
	for _, r := range rows {
		cj := CampaignJSON{
			Benchmark:  r.Benchmark,
			Total:      r.Result.Total,
			Categories: make(map[string]float64),
			Detected:   r.Result.DetectedPct(),
		}
		for _, c := range fault.Categories() {
			cj.Categories[string(c)] = r.Result.Pct(c)
		}
		out = append(out, cj)
	}
	return out
}

// ArtifactJSON bundles every machine-readable artifact one command run
// produced; empty sections are omitted from the encoding, so each command
// writes exactly what it printed.
type ArtifactJSON struct {
	Figures   []FigureJSON   `json:"figures,omitempty"`
	Table1    []Table1Row    `json:"table1,omitempty"`
	Coverage  []CoverageJSON `json:"coverage,omitempty"`
	Headline  *Headline      `json:"headline,omitempty"`
	Campaigns []CampaignJSON `json:"campaigns,omitempty"`
	Energy    []Figure9Row   `json:"energy,omitempty"`
	Perf      []PerfRow      `json:"perf,omitempty"`
}

// WriteJSON writes any exportable value as indented JSON.
func WriteJSON(w io.Writer, v interface{}) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return fmt.Errorf("write json: %w", err)
	}
	return nil
}
