package graph

import (
	"bufio"
	"fmt"
	"io"
)

// WriteDOT renders g in Graphviz DOT format in the style of Fig. 2 in the
// paper: a graph named "fig2", accounts as solid ellipses, contracts as
// dashed boxes, and edges labelled with their multiplicity when it is
// greater than one.
func (g *Graph) WriteDOT(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("digraph \"fig2\" {\n  rankdir=LR;\n  node [fontsize=10];\n")
	for _, id := range g.VertexIDs() {
		style := "solid"
		shape := "ellipse"
		if g.VertexKind(id) == KindContract {
			style = "dashed"
			shape = "box"
		}
		fmt.Fprintf(bw, "  %d [shape=%s, style=%s];\n", id, shape, style)
	}
	var err error
	g.Edges(func(u, v VertexID, wgt int64) bool {
		if wgt > 1 {
			_, err = fmt.Fprintf(bw, "  %d -> %d [label=\"%d\"];\n", u, v, wgt)
		} else {
			_, err = fmt.Fprintf(bw, "  %d -> %d;\n", u, v)
		}
		return err == nil
	})
	if err != nil {
		return fmt.Errorf("graph: writing DOT edges: %w", err)
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}
