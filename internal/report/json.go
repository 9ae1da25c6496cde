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
// marshal through stable, documented shapes.

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

// Table1JSON is the wire form of one Table 1 row.
type Table1JSON struct {
	Benchmark string `json:"benchmark"`
	Suite     string `json:"suite"` // "SPECint" or "SPECfp"
	Measured  int    `json:"measured"`
	Paper     int    `json:"paper"`
}

// EncodeTable1 converts Table 1 rows into the wire form.
func EncodeTable1(rows []Table1Row) []Table1JSON {
	out := make([]Table1JSON, 0, len(rows))
	for _, r := range rows {
		suite := "SPECint"
		if r.FP {
			suite = "SPECfp"
		}
		out = append(out, Table1JSON{Benchmark: r.Benchmark, Suite: suite, Measured: r.Measured, Paper: r.Paper})
	}
	return out
}

// Figure9JSON is the wire form of one Figure 9 energy row (mJ).
type Figure9JSON struct {
	Benchmark      string  `json:"benchmark"`
	ITRSinglePort  float64 `json:"itrSinglePortMJ"`
	ITRDualPort    float64 `json:"itrDualPortMJ"`
	ICacheRedFetch float64 `json:"icacheRedundantFetchMJ"`
}

// EncodeFigure9 converts Figure 9 rows into the wire form.
func EncodeFigure9(rows []Figure9Row) []Figure9JSON {
	out := make([]Figure9JSON, 0, len(rows))
	for _, r := range rows {
		out = append(out, Figure9JSON{
			Benchmark:      r.Benchmark,
			ITRSinglePort:  r.ITRSinglePort,
			ITRDualPort:    r.ITRDualPort,
			ICacheRedFetch: r.ICacheRedFetch,
		})
	}
	return out
}

// PerfJSON is the wire form of one frontend-protection performance row.
type PerfJSON struct {
	Benchmark        string  `json:"benchmark"`
	BaseIPC          float64 `json:"baseIPC"`
	ITRIPC           float64 `json:"itrIPC"`
	DualDecodeIPC    float64 `json:"dualDecodeIPC"`
	TimeRedundantIPC float64 `json:"timeRedundantIPC"`
}

// EncodePerf converts perf-comparison rows into the wire form.
func EncodePerf(rows []PerfRow) []PerfJSON {
	out := make([]PerfJSON, 0, len(rows))
	for _, r := range rows {
		out = append(out, PerfJSON{
			Benchmark:        r.Benchmark,
			BaseIPC:          r.BaseIPC,
			ITRIPC:           r.ITRIPC,
			DualDecodeIPC:    r.DualDecodeIPC,
			TimeRedundantIPC: r.TimeRedundantIPC,
		})
	}
	return out
}

// HeadlineJSON is the wire form of the Section 3 headline summary.
type HeadlineJSON struct {
	AvgDetectionLossPct float64 `json:"avgDetectionLossPct"`
	MaxDetectionLossPct float64 `json:"maxDetectionLossPct"`
	MaxDetectionName    string  `json:"maxDetectionBenchmark"`
	AvgRecoveryLossPct  float64 `json:"avgRecoveryLossPct"`
	MaxRecoveryLossPct  float64 `json:"maxRecoveryLossPct"`
	MaxRecoveryName     string  `json:"maxRecoveryBenchmark"`
}

// EncodeHeadline converts the headline summary into the wire form.
func EncodeHeadline(h Headline) HeadlineJSON {
	return HeadlineJSON{
		AvgDetectionLossPct: h.AvgDetectionLoss,
		MaxDetectionLossPct: h.MaxDetectionLoss,
		MaxDetectionName:    h.MaxDetectionName,
		AvgRecoveryLossPct:  h.AvgRecoveryLoss,
		MaxRecoveryLossPct:  h.MaxRecoveryLoss,
		MaxRecoveryName:     h.MaxRecoveryName,
	}
}

// ArtifactJSON bundles every machine-readable artifact one command run
// produced; empty sections are omitted from the encoding, so each command
// writes exactly what it printed.
type ArtifactJSON struct {
	Figures   []FigureJSON   `json:"figures,omitempty"`
	Table1    []Table1JSON   `json:"table1,omitempty"`
	Coverage  []CoverageJSON `json:"coverage,omitempty"`
	Headline  *HeadlineJSON  `json:"headline,omitempty"`
	Campaigns []CampaignJSON `json:"campaigns,omitempty"`
	Energy    []Figure9JSON  `json:"energy,omitempty"`
	Perf      []PerfJSON     `json:"perf,omitempty"`
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
