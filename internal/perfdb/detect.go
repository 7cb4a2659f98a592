package perfdb

import (
	"fmt"
	"math"
	"sort"
)

// Thresholds tunes the change detector.
type Thresholds struct {
	// Window is how many of the most recent baseline samples per key
	// feed the median/MAD estimate.
	Window int
	// Z is the robust z-score beyond which a change is a verdict, not
	// noise.
	Z float64
	// MinRel floors the MAD-derived scale at this fraction of the
	// median, so a perfectly quiet baseline (MAD 0 — the common case
	// for a deterministic virtual-time simulator) still tolerates tiny
	// refactoring jitter instead of flagging every ulp.
	MinRel float64
}

// DefaultThresholds returns the detector's defaults: a 20-sample window
// and a 4-sigma threshold floored at 2% of the median. With the MinRel
// floor active (a quiet baseline), a sample fires at an 8% shift.
func DefaultThresholds() Thresholds {
	return Thresholds{Window: 20, Z: 4, MinRel: 0.02}
}

// withDefaults fills zero fields.
func (th Thresholds) withDefaults() Thresholds {
	d := DefaultThresholds()
	if th.Window <= 0 {
		th.Window = d.Window
	}
	if th.Z <= 0 {
		th.Z = d.Z
	}
	if th.MinRel <= 0 {
		th.MinRel = d.MinRel
	}
	return th
}

// Verdict classifies one configuration's fresh sample against its
// baseline. Every gated metric is a host cost, so direction matters:
// a higher cost is a regression, a lower one an improvement.
type Verdict int

const (
	// VerdictNoBaseline means the trajectory holds no samples for the
	// key: the first record can never fail a check.
	VerdictNoBaseline Verdict = iota
	// VerdictOK means the sample sits inside the noise band.
	VerdictOK
	// VerdictImprove means the sample is significantly cheaper.
	VerdictImprove
	// VerdictRegress means the sample is significantly costlier.
	VerdictRegress
)

// String returns the verdict label used in reports.
func (v Verdict) String() string {
	switch v {
	case VerdictNoBaseline:
		return "no-baseline"
	case VerdictOK:
		return "ok"
	case VerdictImprove:
		return "improve"
	case VerdictRegress:
		return "REGRESS"
	default:
		return fmt.Sprintf("verdict(%d)", int(v))
	}
}

// Finding is the detector's output for one configuration key.
type Finding struct {
	Key     string  `json:"key"`
	Verdict Verdict `json:"-"`
	// VerdictLabel mirrors Verdict for the JSON form.
	VerdictLabel string `json:"verdict"`
	// Value is the fresh sample.
	Value float64 `json:"value"`
	// Median and MAD describe the baseline window; Scale is the
	// floored deviation the z-score divides by.
	Median float64 `json:"median,omitempty"`
	MAD    float64 `json:"mad,omitempty"`
	Scale  float64 `json:"scale,omitempty"`
	// Z is the signed robust z-score (positive = costlier).
	Z float64 `json:"z"`
	// Ratio is value/median (1 when there is no baseline).
	Ratio float64 `json:"ratio,omitempty"`
	// Baseline counts the window samples consulted.
	Baseline int `json:"baseline"`
}

// Median returns the median of xs (0 for an empty slice).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// MAD returns the median absolute deviation of xs around med.
func MAD(xs []float64, med float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - med)
	}
	return Median(dev)
}

// madToSigma converts a MAD to a normal-consistent standard deviation.
const madToSigma = 1.4826

// Detect scores one fresh sample against its baseline window. The
// baseline slice is chronological; only the trailing th.Window samples
// are consulted. An empty baseline yields VerdictNoBaseline — the
// first recorded sample of a configuration never fails a gate. A
// single-sample baseline degenerates to MAD 0, where the MinRel floor
// keeps the scale positive and the verdict well-defined.
func Detect(key string, baseline []float64, value float64, th Thresholds) Finding {
	th = th.withDefaults()
	if len(baseline) > th.Window {
		baseline = baseline[len(baseline)-th.Window:]
	}
	f := Finding{Key: key, Value: value, Baseline: len(baseline)}
	if len(baseline) == 0 {
		f.Verdict = VerdictNoBaseline
		f.VerdictLabel = f.Verdict.String()
		f.Ratio = 1
		return f
	}
	f.Median = Median(baseline)
	f.MAD = MAD(baseline, f.Median)
	f.Scale = math.Max(madToSigma*f.MAD, th.MinRel*math.Abs(f.Median))
	// An all-zero baseline cannot happen for validated records (zero
	// runtimes are rejected at Append), but keep the division safe.
	f.Scale = math.Max(f.Scale, 1e-300)
	f.Z = (value - f.Median) / f.Scale
	if f.Median > 0 {
		f.Ratio = value / f.Median
	}
	switch {
	case f.Z > th.Z:
		f.Verdict = VerdictRegress
	case f.Z < -th.Z:
		f.Verdict = VerdictImprove
	default:
		f.Verdict = VerdictOK
	}
	f.VerdictLabel = f.Verdict.String()
	return f
}

// CheckMetric scores one per-record metric of every fresh record
// against the trajectory's baseline window for the same configuration
// key, in input order. Keys carry a "#name" suffix so the findings of
// different metrics never collide in reports. Records where metric
// returns zero — e.g. wall_seconds on history written before
// self-observability — contribute nothing: they are skipped both in
// the baseline and as fresh samples, so mixing old and new records
// degrades to "no baseline" instead of poisoning the window.
func (t *Trajectory) CheckMetric(fresh []Record, name string, metric func(Record) float64, th Thresholds) []Finding {
	series := map[string][]float64{}
	for _, r := range t.Records {
		if v := metric(r); v > 0 {
			k := r.Key()
			series[k] = append(series[k], v)
		}
	}
	var out []Finding
	for _, r := range fresh {
		v := metric(r)
		if v <= 0 {
			continue
		}
		f := Detect(r.Key()+"#"+name, series[r.Key()], v, th)
		out = append(out, f)
	}
	return out
}

// Regressions filters findings down to the failing verdicts: the gate
// is regress-only, so a cheaper simulator never fails it.
func Regressions(fs []Finding) []Finding {
	var out []Finding
	for _, f := range fs {
		if f.Verdict == VerdictRegress {
			out = append(out, f)
		}
	}
	return out
}
