// Package branch implements Table 1's hashed perceptron branch
// direction predictor (Tarjan & Skadron, TACO'05), which the simulator
// runs when config.SystemConfig.BranchPredictor is "perceptron". The
// default, a fixed-accuracy coin flip that keeps runs comparable across
// workloads whose branch behaviour differs, lives in the simulator
// (sim.Machine.predictBranch).
package branch

import "itpsim/internal/arch"

// Perceptron is a hashed perceptron predictor: several weight tables
// indexed by hashes of the PC and different-length slices of the global
// history register; the prediction is the sign of the summed weights, and
// training bumps each contributing weight when the prediction was wrong
// or the sum was below the confidence threshold.
type Perceptron struct {
	tables  [][]int8
	history uint64
	// hashLens are the history lengths (in bits) each table sees.
	hashLens []uint
	// theta is the training threshold (classic: 1.93*h + 14).
	theta int
}

const (
	perceptronTableBits = 12
	perceptronWeightMax = 63
	perceptronWeightMin = -64
)

// NewPerceptron builds the predictor with the classic geometric history
// lengths.
func NewPerceptron() *Perceptron {
	lens := []uint{0, 4, 8, 16, 32}
	p := &Perceptron{hashLens: lens, theta: int(1.93*float64(len(lens))*8) + 14}
	p.tables = make([][]int8, len(lens))
	for i := range p.tables {
		p.tables[i] = make([]int8, 1<<perceptronTableBits)
	}
	return p
}

func (p *Perceptron) index(table int, pc arch.Addr) int {
	hlen := p.hashLens[table]
	var hist uint64
	if hlen > 0 {
		hist = p.history & (1<<hlen - 1)
	}
	h := uint64(pc>>2) ^ (hist * 0x9e3779b97f4a7c15) ^ (uint64(table) << 7)
	h ^= h >> 23
	return int(h & (1<<perceptronTableBits - 1))
}

// sum computes the perceptron output for pc.
func (p *Perceptron) sum(pc arch.Addr) int {
	s := 0
	for t := range p.tables {
		s += int(p.tables[t][p.index(t, pc)])
	}
	return s
}

// Predict returns the predicted direction for the branch at pc.
func (p *Perceptron) Predict(pc arch.Addr) bool { return p.sum(pc) >= 0 }

// Update trains the predictor with the actual outcome: it trains on
// mispredictions and low-confidence correct predictions, then shifts the
// outcome into the history.
func (p *Perceptron) Update(pc arch.Addr, taken bool) {
	s := p.sum(pc)
	predicted := s >= 0
	if predicted != taken || abs(s) < p.theta {
		for t := range p.tables {
			idx := p.index(t, pc)
			w := p.tables[t][idx]
			if taken && w < perceptronWeightMax {
				w++
			} else if !taken && w > perceptronWeightMin {
				w--
			}
			p.tables[t][idx] = w
		}
	}
	p.history = p.history<<1 | b2u(taken)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// HashState implements arch.StateHasher: the full weight tables plus the
// global history register, so beacon streams cover predictor state.
func (p *Perceptron) HashState(h *arch.StateHash) {
	for _, table := range p.tables {
		for _, w := range table {
			h.Word(uint64(uint8(w)))
		}
	}
	h.Word(p.history)
}
