package graph

// WithoutLabelIndex exposes the filtering view to the external
// graph_test package, whose equivalence tier runs whole engines over it.
var WithoutLabelIndex = (*Graph).withoutLabelIndex
