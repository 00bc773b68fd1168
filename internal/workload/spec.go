package workload

import (
	"fmt"
)

// Spec names one of the five workload archetypes plus its parameters, in a
// form both ends of the serving path can construct independently: oltpd
// builds (and populates) the workload from its Spec, oltpdrive builds an
// identical Spec to generate matching traffic, and the server's Hello frame
// carries Spec.String() so the driver can detect a mismatch before sending a
// single transaction.
type Spec struct {
	// Kind is one of "micro", "tpcb", "tpcc", "olap", "hybrid".
	Kind string

	// Micro parameters.
	Rows      int64
	RowsPerTx int
	ReadWrite bool

	// TPC-B parameters. AccountsPerBranch of 0 means 10,000 (a tenth of the
	// TPC-B specification's 100,000, which is TPCBConfig's own default);
	// cluster tests shrink it further to keep populations small.
	Branches          int
	AccountsPerBranch int

	// TPC-C / hybrid parameters. Warehouses is rounded up to a multiple of
	// the partition count at New time (TPC-C generation requires it). The
	// per-district sizes are serving-scale defaults when 0; tests override.
	Warehouses           int
	OLAPPercent          int
	Items                int
	CustomersPerDistrict int
	OrdersPerDistrict    int

	// OLAP parameters (Rows is shared with micro).
	Groups int64
}

// DefaultSpec returns the serving default: TPC-C at a small warehouse count.
func DefaultSpec() Spec { return Spec{Kind: "tpcc", Warehouses: 2} }

// normalized fills in defaults for unset parameters.
func (s Spec) normalized() Spec {
	if s.Kind == "" {
		s.Kind = "tpcc"
	}
	if s.Rows <= 0 {
		s.Rows = 100_000
	}
	if s.RowsPerTx <= 0 {
		s.RowsPerTx = 1
	}
	if s.Branches <= 0 {
		s.Branches = 8
	}
	if s.Warehouses <= 0 {
		s.Warehouses = 2
	}
	if s.Groups <= 0 {
		s.Groups = 16
	}
	if s.OLAPPercent < 0 {
		s.OLAPPercent = 0
	}
	if s.OLAPPercent > 100 {
		s.OLAPPercent = 100
	}
	return s
}

// Validate rejects unknown kinds and parameter combinations the generators
// cannot serve.
func (s Spec) Validate(parts int) error {
	s = s.normalized()
	switch s.Kind {
	case "micro", "tpcc", "olap", "hybrid":
	case "tpcb":
		// Partitioned TPC-B draws every id from the arithmetic progression
		// congruent to the home partition; each per-branch range must contain
		// at least one member per partition (see TPCB.Gen).
		if parts > TellersPerBranch {
			return fmt.Errorf("workload: tpcb supports at most %d shards (got %d)", TellersPerBranch, parts)
		}
		if parts > 1 && s.Branches < parts {
			return fmt.Errorf("workload: tpcb needs branches >= shards (%d < %d)", s.Branches, parts)
		}
		if parts > 1 && s.AccountsPerBranch > 0 && s.AccountsPerBranch < parts {
			return fmt.Errorf("workload: tpcb needs accounts/branch >= shards (%d < %d)", s.AccountsPerBranch, parts)
		}
	default:
		return fmt.Errorf("workload: unknown kind %q (want micro|tpcb|tpcc|olap|hybrid)", s.Kind)
	}
	return nil
}

// tpccConfig builds the TPC-C sizing for the spec, rounding warehouses up to
// a multiple of the partition count and keeping the per-district sizes the
// harness uses at serving scale.
func (s Spec) tpccConfig(parts int) TPCCConfig {
	w := s.Warehouses
	if parts > 1 && w%parts != 0 {
		w += parts - w%parts
	}
	cfg := TPCCConfig{
		Warehouses:           w,
		Items:                10_000,
		CustomersPerDistrict: 600,
		OrdersPerDistrict:    600,
	}
	if s.Items > 0 {
		cfg.Items = s.Items
	}
	if s.CustomersPerDistrict > 0 {
		cfg.CustomersPerDistrict = s.CustomersPerDistrict
	}
	if s.OrdersPerDistrict > 0 {
		cfg.OrdersPerDistrict = s.OrdersPerDistrict
	}
	return cfg
}

// New builds a fresh workload instance for an engine with the given
// partition count. Every call returns an independent instance: the driver
// gives each connection its own (generators carry per-instance scratch).
func (s Spec) New(parts int) Workload {
	s = s.normalized()
	if err := s.Validate(parts); err != nil {
		panic(err)
	}
	switch s.Kind {
	case "micro":
		return NewMicro(MicroConfig{Rows: s.Rows, RowsPerTx: s.RowsPerTx, ReadWrite: s.ReadWrite})
	case "tpcb":
		apb := 10_000
		if s.AccountsPerBranch > 0 {
			apb = s.AccountsPerBranch
		}
		return NewTPCB(TPCBConfig{Branches: s.Branches, AccountsPerBranch: apb})
	case "tpcc":
		return NewTPCC(s.tpccConfig(parts))
	case "olap":
		return NewOLAP(OLAPConfig{Rows: s.Rows, Groups: s.Groups})
	case "hybrid":
		return NewHybrid(HybridConfig{TPCC: s.tpccConfig(parts), OLAPPercent: s.OLAPPercent})
	}
	panic("unreachable")
}

// ProcNames lists every stored procedure the spec's generator can emit, so a
// driver connection can prepare them all up front.
func (s Spec) ProcNames() []string {
	s = s.normalized()
	tpcc := []string{"new_order", "payment", "order_status", "delivery", "stock_level"}
	switch s.Kind {
	case "micro":
		if s.ReadWrite {
			return []string{"micro_rw"}
		}
		return []string{"micro_ro"}
	case "tpcb":
		return []string{"account_update"}
	case "tpcc":
		return tpcc
	case "olap":
		return []string{"olap_sum", "olap_group", "olap_range"}
	case "hybrid":
		return append(tpcc, "olap_revenue", "olap_by_district", "olap_district")
	}
	return nil
}

// String renders the canonical form exchanged in the wire Hello. Two specs
// with equal strings generate compatible traffic for the same schema. The
// sizing overrides appear only when set, so default specs render exactly as
// they always have.
func (s Spec) String() string {
	s = s.normalized()
	switch s.Kind {
	case "micro":
		return fmt.Sprintf("micro:rows=%d,per-tx=%d,rw=%v", s.Rows, s.RowsPerTx, s.ReadWrite)
	case "tpcb":
		str := fmt.Sprintf("tpcb:branches=%d", s.Branches)
		if s.AccountsPerBranch > 0 {
			str += fmt.Sprintf(",apb=%d", s.AccountsPerBranch)
		}
		return str
	case "tpcc":
		return "tpcc:warehouses=" + s.sizes()
	case "olap":
		return fmt.Sprintf("olap:rows=%d,groups=%d", s.Rows, s.Groups)
	case "hybrid":
		return fmt.Sprintf("hybrid:warehouses=%s,olap=%d%%", s.sizes(), s.OLAPPercent)
	}
	return "invalid:" + s.Kind
}

// sizes renders the warehouse count plus any TPC-C sizing overrides.
func (s Spec) sizes() string {
	str := fmt.Sprintf("%d", s.Warehouses)
	if s.Items > 0 {
		str += fmt.Sprintf(",items=%d", s.Items)
	}
	if s.CustomersPerDistrict > 0 {
		str += fmt.Sprintf(",cust=%d", s.CustomersPerDistrict)
	}
	if s.OrdersPerDistrict > 0 {
		str += fmt.Sprintf(",orders=%d", s.OrdersPerDistrict)
	}
	return str
}
