package experiments

import (
	"fmt"
	"io"
	"time"

	"bpar/internal/core"
	"bpar/internal/taskrt"
	"bpar/internal/tensor"
)

// DTypeRow is one backend configuration of the inference-dtype study.
type DTypeRow struct {
	// Mode names the configuration: f64 or f32.
	Mode string
	// StepsSec is forward-only (InferProbs) steps per second.
	StepsSec float64
	// Speedup is StepsSec over the plain f64 row's.
	Speedup float64
	// MaxAbsDiff is the largest absolute probability deviation from the
	// f64 row across every timed batch: small but non-zero for f32.
	MaxAbsDiff float64
}

// DTypeResult describes the measured configuration alongside its rows.
type DTypeResult struct {
	Input, Hidden, Batch, Seq int
	Rows                      []DTypeRow
}

// RunDType contrasts the inference tensor backends at the Table III
// batch-1 serving row {256, 256, batch 1, seq 100}: float64 and the float32
// mirror (half the element width). Both pack their recurrent weight panels
// on the split path.
func RunDType(o Opts) (*DTypeResult, error) {
	cfg := tableConfig(core.LSTM, [4]int{256, 256, 1, 100}, o.SeqLen)
	const warmup, timed = 2, 6
	batches := make([]*core.Batch, warmup+timed)
	for i := range batches {
		batches[i] = synthTrainBatch(cfg, uint64(i)+1)
	}
	m, err := core.NewModel(cfg)
	if err != nil {
		return nil, err
	}
	res := &DTypeResult{
		Input: cfg.InputSize, Hidden: cfg.HiddenSize, Batch: cfg.Batch, Seq: cfg.SeqLen,
	}
	modes := []struct {
		name  string
		dtype tensor.DType
	}{
		{"f64", tensor.F64},
		{"f32", tensor.F32},
	}
	// Reference probabilities from the f64 configuration, per batch.
	var refProbs [][]*tensor.Matrix
	for _, mode := range modes {
		stepsSec, probs, err := timeInferSteps(m, mode.dtype, o, warmup, batches)
		if err != nil {
			return nil, fmt.Errorf("dtype %s: %w", mode.name, err)
		}
		row := DTypeRow{Mode: mode.name, StepsSec: stepsSec}
		if refProbs == nil {
			refProbs = probs
			row.Speedup = 1
		} else {
			row.Speedup = stepsSec / res.Rows[0].StepsSec
			row.MaxAbsDiff = maxProbsDiff(refProbs, probs)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// timeInferSteps runs forward-only steps over batches on a fresh engine
// sharing model m, returning timed steps per second and the timed batches'
// probability outputs (for cross-backend comparison).
func timeInferSteps(m *core.Model, dtype tensor.DType, o Opts, warmup int, batches []*core.Batch) (float64, [][]*tensor.Matrix, error) {
	rt := taskrt.New(taskrt.Options{Workers: 2, Policy: taskrt.LocalityAware, Profile: o.Profile})
	defer rt.Shutdown()
	eng := core.NewEngine(m, rt)
	eng.NoReplay = o.NoReplay
	eng.InferDType = dtype
	var start time.Time
	var probs [][]*tensor.Matrix
	for i, b := range batches {
		if i == warmup {
			start = time.Now()
		}
		p, _, err := eng.InferProbs(b)
		if err != nil {
			return 0, nil, fmt.Errorf("step %d: %w", i, err)
		}
		if i >= warmup {
			probs = append(probs, p)
		}
	}
	elapsed := time.Since(start).Seconds()
	if elapsed <= 0 {
		return 0, nil, fmt.Errorf("degenerate timing")
	}
	return float64(len(batches)-warmup) / elapsed, probs, nil
}

// maxProbsDiff returns the largest absolute elementwise deviation between two
// runs' probability outputs.
func maxProbsDiff(a, b [][]*tensor.Matrix) float64 {
	worst := 0.0
	for i := range a {
		for h := range a[i] {
			for j, v := range a[i][h].Data {
				d := v - b[i][h].Data[j]
				if d < 0 {
					d = -d
				}
				if d > worst {
					worst = d
				}
			}
		}
	}
	return worst
}

// PrintDType renders the study.
func PrintDType(w io.Writer, r *DTypeResult) {
	fprintf(w, "Inference tensor backends — f64, f32 mirror\n")
	fprintf(w, "BLSTM 6 layers, input %d, hidden %d, batch %d, seq %d (Table III serving row)\n",
		r.Input, r.Hidden, r.Batch, r.Seq)
	fprintf(w, "%-14s %-12s %-10s %s\n", "mode", "steps/s", "speedup", "max |Δp| vs f64")
	for _, row := range r.Rows {
		fprintf(w, "%-14s %-12.3f %-10.2f %.3g\n", row.Mode, row.StepsSec, row.Speedup, row.MaxAbsDiff)
	}
}
