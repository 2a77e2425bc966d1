package transdas

import (
	"math"

	"github.com/ucad/ucad/internal/nn"
	"github.com/ucad/ucad/internal/tensor"
)

// The reference implementations the equivalence tests compare the
// production paths against: the tape forward behind scoreNextTape pins
// the Scorer to 1e-9, and trainSequential pins the data-parallel
// trainer bit for bit.

// scoreNextTape is the tape-based reference implementation of
// ScoreNext: it builds a fresh autodiff graph per call, exactly as
// training does. The property tests pin the Scorer kernel to this path,
// and the in-package benchmark measures the per-op cost the batch-first
// API replaces.
func (m *Model) scoreNextTape(buf []float64, preceding []int) []float64 {
	var sims []float64
	if cap(buf) >= m.cfg.Vocab {
		sims = buf[:m.cfg.Vocab]
		for i := range sims {
			sims[i] = 0
		}
	} else {
		sims = make([]float64, m.cfg.Vocab)
	}
	if len(preceding) == 0 {
		return sims
	}
	if len(preceding) > m.cfg.Window {
		preceding = preceding[len(preceding)-m.cfg.Window:]
	}
	tp := tensor.NewTape()
	out := m.forward(tp, preceding, false)
	last := out.Value.Row(out.Value.Rows - 1)

	table := m.emb.Table.Value
	for k := 1; k < m.cfg.Vocab; k++ {
		row := table.Row(k)
		var dot float64
		for j, v := range last {
			dot += v * row[j]
		}
		sims[k] = 1 / (1 + math.Exp(-dot))
	}
	return sims
}

// trainSequential is the pre-parallel reference trajectory: one window,
// one tape, one SGD step, all randomness from the model's own stream.
// The data-parallel trainer with TrainWorkers=1 and BatchSize=1 is
// bit-identical to it (asserted by the equivalence tests); it is kept
// as the executable specification the tests compare against.
func (m *Model) trainSequential(windows []window, epochs int, lr float64, progress func(int, float64)) TrainResult {
	res := TrainResult{Windows: len(windows)}
	if len(windows) == 0 {
		return res
	}
	opt := nn.NewSGD(lr, m.cfg.Momentum)
	order := make([]int, len(windows))
	for i := range order {
		order[i] = i
	}
	var negBuf []int
	for epoch := 0; epoch < epochs; epoch++ {
		m.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var total float64
		var count int
		for _, wi := range order {
			tp := tensor.NewTape()
			var loss *tensor.Node
			var valid int
			loss, valid, negBuf = m.windowLoss(tp, windows[wi], true, m.rng, negBuf)
			if loss == nil {
				continue
			}
			tp.Backward(loss)
			m.applyStep(opt)
			total += loss.Value.Data[0] * float64(valid)
			count += valid
		}
		mean := 0.0
		if count > 0 {
			mean = total / float64(count)
		}
		res.EpochLoss = append(res.EpochLoss, mean)
		if progress != nil {
			progress(epoch, mean)
		}
	}
	return res
}
