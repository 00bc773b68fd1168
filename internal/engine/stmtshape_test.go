package engine

import (
	"testing"

	"oltpsim/internal/catalog"
)

// TestStmtShape pins the statement shapes behind DBMS D's parser and
// optimizer charges: token and predicate counts per op kind for tables of k
// key columns and n columns. The expected values are literals counted from
// the statement templates in stmtShape's comment (end-of-input token
// included), not recomputed from the formula.
func TestStmtShape(t *testing.T) {
	type shape struct{ tokens, preds int }
	cases := []struct {
		name string
		k, n int
		want [numOpKinds]shape
	}{
		// The micro-benchmark table and TPC-C's warehouse/item: a one-column key.
		{"micro", 1, 2, [numOpKinds]shape{
			opGet: {9, 1}, opUpdate: {11, 2}, opInsert: {10, 0}, opDelete: {8, 1}, opScan: {11, 1},
			opScanAll: {5, 0}, opAgg: {23, 0}, opAggRange: {16, 2}, opAggGroup: {13, 0}}},
		// A key-only table (TPC-C's new_order): the last column is a key column.
		{"new_order", 3, 3, [numOpKinds]shape{
			opGet: {17, 3}, opUpdate: {19, 4}, opInsert: {12, 0}, opDelete: {16, 3}, opScan: {19, 3},
			opScanAll: {5, 0}, opAgg: {23, 0}, opAggRange: {24, 4}, opAggGroup: {13, 0}}},
		// TPC-C's order_line as the workload declares it, and at the
		// specification's ten columns.
		{"order_line", 4, 8, [numOpKinds]shape{
			opGet: {21, 4}, opUpdate: {23, 5}, opInsert: {22, 0}, opDelete: {20, 4}, opScan: {23, 4},
			opScanAll: {5, 0}, opAgg: {23, 0}, opAggRange: {28, 5}, opAggGroup: {13, 0}}},
		{"order_line-spec", 4, 10, [numOpKinds]shape{
			opGet: {21, 4}, opUpdate: {23, 5}, opInsert: {26, 0}, opDelete: {20, 4}, opScan: {23, 4},
			opScanAll: {5, 0}, opAgg: {23, 0}, opAggRange: {28, 5}, opAggGroup: {13, 0}}},
	}
	for _, tc := range cases {
		tbl := &Table{
			Name:    tc.name,
			Schema:  &catalog.Schema{Columns: make([]catalog.Column, tc.n)},
			KeyCols: make([]int, tc.k),
		}
		for kind, want := range tc.want {
			tokens, preds := tbl.stmtShape(opKind(kind))
			if got := (shape{tokens, preds}); got != want {
				t.Errorf("%s (k=%d, n=%d) op kind %d: shape %v, want %v", tc.name, tc.k, tc.n, kind, got, want)
			}
		}
	}
}
