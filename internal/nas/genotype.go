package nas

import (
	"fmt"
	"strings"
)

// Genotype is a discrete architecture: one op kind per edge for the shared
// normal cell and the shared reduction cell. It is the searchable artifact
// the paper transfers across datasets (Tables VII–VIII).
type Genotype struct {
	Normal []OpKind
	Reduce []OpKind
	Nodes  int
}

// String renders the genotype in a DARTS-like compact notation.
func (g Genotype) String() string {
	var b strings.Builder
	b.WriteString("Genotype(normal=[")
	for i, op := range g.Normal {
		if i > 0 {
			b.WriteString(" ")
		}
		b.WriteString(op.String())
	}
	b.WriteString("], reduce=[")
	for i, op := range g.Reduce {
		if i > 0 {
			b.WriteString(" ")
		}
		b.WriteString(op.String())
	}
	b.WriteString("])")
	return b.String()
}

// Validate checks the genotype's structural consistency.
func (g Genotype) Validate() error {
	want := NumEdges(g.Nodes)
	if len(g.Normal) != want || len(g.Reduce) != want {
		return fmt.Errorf("genotype: %d nodes needs %d edges per cell, got normal=%d reduce=%d",
			g.Nodes, want, len(g.Normal), len(g.Reduce))
	}
	return nil
}

// GatesFor converts the genotype into gates over a candidate set. Every op
// in the genotype must appear in candidates.
func (g Genotype) GatesFor(candidates []OpKind) (Gates, error) {
	index := make(map[OpKind]int, len(candidates))
	for i, k := range candidates {
		index[k] = i
	}
	conv := func(ops []OpKind) ([]int, error) {
		out := make([]int, len(ops))
		for i, k := range ops {
			ci, ok := index[k]
			if !ok {
				return nil, fmt.Errorf("genotype: op %s not in candidate set", k)
			}
			out[i] = ci
		}
		return out, nil
	}
	normal, err := conv(g.Normal)
	if err != nil {
		return Gates{}, err
	}
	reduce, err := conv(g.Reduce)
	if err != nil {
		return Gates{}, err
	}
	return Gates{Normal: normal, Reduce: reduce}, nil
}

// GenotypeFromGates maps one-hot gates back to op kinds.
func GenotypeFromGates(g Gates, candidates []OpKind, nodes int) Genotype {
	conv := func(gs []int) []OpKind {
		out := make([]OpKind, len(gs))
		for i, k := range gs {
			out[i] = candidates[k]
		}
		return out
	}
	return Genotype{Normal: conv(g.Normal), Reduce: conv(g.Reduce), Nodes: nodes}
}

// DeriveGenotype picks the argmax candidate per edge from architecture
// probability matrices (rows = edges, cols = candidates).
func DeriveGenotype(probsNormal, probsReduce [][]float64, candidates []OpKind, nodes int) Genotype {
	arg := func(rows [][]float64) []OpKind {
		out := make([]OpKind, len(rows))
		for i, row := range rows {
			best, bi := row[0], 0
			for j, v := range row {
				if v > best {
					best, bi = v, j
				}
			}
			out[i] = candidates[bi]
		}
		return out
	}
	return Genotype{Normal: arg(probsNormal), Reduce: arg(probsReduce), Nodes: nodes}
}

// DerivedParamCount estimates the parameter count of the discrete model a
// genotype induces under cfg, without materializing it. It accounts for the
// stem, per-cell preprocessing, gated ops, and classifier head.
func DerivedParamCount(cfg Config, g Genotype) (int, error) {
	if err := g.Validate(); err != nil {
		return 0, err
	}
	total := cfg.InChannels*cfg.C*3*3 + 2*cfg.C // stem conv + bn
	red := cfg.ReductionLayers()
	cPrevPrev, cPrev, cCur := cfg.C, cfg.C, cfg.C
	for l := 0; l < cfg.Layers; l++ {
		if red[l] {
			cCur *= 2
		}
		ops := g.Normal
		if red[l] {
			ops = g.Reduce
		}
		// pre0, pre1: 1x1 conv + bn each.
		total += cPrevPrev*cCur + 2*cCur
		total += cPrev*cCur + 2*cCur
		for _, op := range ops {
			total += OpParamCount(op, cCur)
		}
		cPrevPrev, cPrev = cPrev, cfg.Nodes*cCur
	}
	total += cPrev*cfg.NumClasses + cfg.NumClasses // head
	return total, nil
}

// ParamMB converts a scalar parameter count to float32 megabytes, the unit
// the paper's tables report.
func ParamMB(paramCount int) float64 {
	return float64(paramCount) * 4 / (1024 * 1024)
}
