package experiments

import (
	"fmt"
	"strings"

	"github.com/jitbull/jitbull/internal/core"
	"github.com/jitbull/jitbull/internal/engine"
	"github.com/jitbull/jitbull/internal/octane"
	"github.com/jitbull/jitbull/internal/variants"
	"github.com/jitbull/jitbull/internal/vulndb"
)

// AblationRow reports, for one (Thr, Ratio) comparator setting, both sides
// of the trade-off the paper's §IV-E defaults balance: how many exploit
// variants are still detected, and how many benign functions get flagged.
type AblationRow struct {
	Thr           int
	Ratio         float64
	Detected      int // of DetectTotal variant runs
	DetectTotal   int
	FlaggedPct    float64 // benign functions pass-disabled or de-JITed, %
	BenignTotal   int
	BenignFlagged int
}

// ThresholdAblation sweeps the Δ comparator settings. For each setting it
// (a) replays the four primary CVEs' rename variants against single-VDC
// databases, and (b) runs the benign corpus against a 4-VDC database,
// reporting detection rate and false-positive rate.
func ThresholdAblation(cfg Config) ([]AblationRow, error) {
	cfg = cfg.withDefaults()
	sweep := []struct {
		thr   int
		ratio float64
	}{
		{1, 0.25},
		{2, 0.50},
		{3, 0.50}, // the paper's setting
		{4, 0.60},
		{6, 0.80},
	}

	// Pre-extract fingerprints and variants once.
	type armed struct {
		v       vulndb.Vuln
		db      *core.Database
		variant string
	}
	var arms []armed
	for _, v := range vulndb.Primary() {
		vdc, err := vulndb.ExtractVDC(v, cfg.IonThreshold)
		if err != nil {
			return nil, err
		}
		db := &core.Database{}
		db.Add(vdc)
		renamed, err := variants.Rename(v.Demonstrator)
		if err != nil {
			return nil, err
		}
		arms = append(arms, armed{v: v, db: db, variant: renamed})
	}
	db4, bugs4, err := vulndb.BuildDB(4, cfg.IonThreshold)
	if err != nil {
		return nil, err
	}

	var rows []AblationRow
	for _, s := range sweep {
		row := AblationRow{Thr: s.thr, Ratio: s.ratio}
		for _, arm := range arms {
			row.DetectTotal++
			e, err := engine.New(arm.variant, engine.Config{Bugs: arm.v.Bug(), IonThreshold: cfg.IonThreshold})
			if err != nil {
				return nil, err
			}
			det := core.NewDetector(arm.db)
			det.Thr, det.Ratio = s.thr, s.ratio
			e.SetPolicy(det)
			_, runErr := e.Run()
			exploited := engine.IsCrash(runErr) || engine.IsHijack(runErr) ||
				e.Arena().Crashed() != nil || e.Hijacked() != nil
			if !exploited && len(det.Matches) > 0 {
				row.Detected++
			}
		}
		for _, b := range octane.Suite() {
			e, err := engine.New(b.Source(cfg.Scale), engine.Config{Bugs: bugs4, IonThreshold: cfg.IonThreshold})
			if err != nil {
				return nil, err
			}
			det := core.NewDetector(db4)
			det.Thr, det.Ratio = s.thr, s.ratio
			e.SetPolicy(det)
			if _, err := e.Run(); err != nil {
				return nil, fmt.Errorf("%s: %w", b.Name, err)
			}
			row.BenignTotal += e.Stats().NrJIT
			row.BenignFlagged += e.Stats().NrDisJIT + e.Stats().NrNoJIT
		}
		if row.BenignTotal > 0 {
			row.FlaggedPct = 100 * float64(row.BenignFlagged) / float64(row.BenignTotal)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderAblation formats the sweep.
func RenderAblation(rows []AblationRow) string {
	var sb strings.Builder
	sb.WriteString("Comparator ablation: detection vs false positives across (Thr, Ratio)\n")
	sb.WriteString("(the paper picks Thr=3, Ratio=50% \"to optimize for a high detection rate,\n thanks to our low overhead in case of a false positive detection\")\n\n")
	fmt.Fprintf(&sb, "  %4s %6s %12s %14s\n", "Thr", "Ratio", "detected", "benign flagged")
	for _, r := range rows {
		marker := " "
		if r.Thr == 3 && r.Ratio == 0.5 {
			marker = "*"
		}
		fmt.Fprintf(&sb, "%s %4d %5.0f%% %9d/%d %12.1f%%\n",
			marker, r.Thr, r.Ratio*100, r.Detected, r.DetectTotal, r.FlaggedPct)
	}
	return sb.String()
}
