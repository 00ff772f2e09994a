package branch

import (
	"testing"
)

func TestPerceptronLearnsBias(t *testing.T) {
	p := NewPerceptron()
	pc := uint64(0x400100)
	// Always-taken branch: should converge to near-perfect quickly.
	correct := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if p.Predict(pc) == true {
			correct++
		}
		p.Update(pc, true)
	}
	if float64(correct)/n < 0.95 {
		t.Errorf("always-taken accuracy = %.3f, want > 0.95", float64(correct)/n)
	}
}

func TestPerceptronLearnsAlternating(t *testing.T) {
	p := NewPerceptron()
	pc := uint64(0x8000)
	// Strict alternation is history-predictable; the perceptron should
	// beat a static predictor (50%) decisively after warmup.
	correct := 0
	const warm, n = 2000, 10000
	taken := false
	for i := 0; i < warm+n; i++ {
		pred := p.Predict(pc)
		if i >= warm && pred == taken {
			correct++
		}
		p.Update(pc, taken)
		taken = !taken
	}
	if acc := float64(correct) / n; acc < 0.9 {
		t.Errorf("alternating accuracy = %.3f, want > 0.9", acc)
	}
}

func TestPerceptronLearnsPeriodicPattern(t *testing.T) {
	p := NewPerceptron()
	pc := uint64(0x1234)
	// Period-5 loop branch (4 taken, 1 not): classic loop exit pattern.
	correct, total := 0, 0
	for i := 0; i < 20000; i++ {
		taken := i%5 != 4
		pred := p.Predict(pc)
		if i > 4000 {
			total++
			if pred == taken {
				correct++
			}
		}
		p.Update(pc, taken)
	}
	if acc := float64(correct) / float64(total); acc < 0.85 {
		t.Errorf("loop pattern accuracy = %.3f, want > 0.85", acc)
	}
}

func TestPerceptronSeparatesBranches(t *testing.T) {
	p := NewPerceptron()
	// Two branches with opposite biases must not destroy each other.
	a, b := uint64(0x111000), uint64(0x222000)
	okA, okB := 0, 0
	const n = 4000
	for i := 0; i < n; i++ {
		if p.Predict(a) == true {
			okA++
		}
		p.Update(a, true)
		if p.Predict(b) == false {
			okB++
		}
		p.Update(b, false)
	}
	if float64(okA)/n < 0.9 || float64(okB)/n < 0.9 {
		t.Errorf("per-branch accuracies %.3f/%.3f, want > 0.9", float64(okA)/n, float64(okB)/n)
	}
}

func TestPerceptronWeightSaturation(t *testing.T) {
	p := NewPerceptron()
	pc := uint64(0x99)
	for i := 0; i < 10000; i++ {
		p.Update(pc, true)
	}
	for t1 := range p.tables {
		for _, w := range p.tables[t1] {
			if w > perceptronWeightMax || w < perceptronWeightMin {
				t.Fatalf("weight %d out of range", w)
			}
		}
	}
}
