package analysis

import (
	"sort"

	"etap/internal/core"
	"etap/internal/isa"
)

// EscapeSite is one concrete instance of the paper's §5.1 memory
// soundness hole: a tagged (low-reliability) definition whose value
// reaches a store's value operand, entering memory untracked. A fault in
// the definition can survive the store/reload round trip and corrupt a
// later control computation without ever flowing through a register the
// analysis watches. PolicyConservative closes the hole by construction,
// so conservative reports produce no escapes.
type EscapeSite struct {
	// Def is the text index of the tagged definition, Reg the register
	// carrying its value into memory, Store the text index of the store
	// consuming it as the stored value.
	Def   int
	Reg   isa.Reg
	Store int
}

// Escapes computes the escape profile of an analysis report: every
// (tagged definition, store) pair where the definition's value is the
// stored operand. Results are ordered by definition then store index.
func Escapes(rep *core.Report) ([]EscapeSite, error) {
	dus, err := ReachingDefs(rep.Prog)
	if err != nil {
		return nil, err
	}
	var sites []EscapeSite
	for _, du := range dus {
		for id, useSites := range du.DefUses {
			def := du.Defs[id]
			if !rep.Tagged[def.Instr] {
				continue
			}
			for _, u := range useSites {
				in := rep.Prog.Text[u]
				if sv, ok := in.StoredValue(); ok && sv == def.Reg {
					sites = append(sites, EscapeSite{Def: def.Instr, Reg: def.Reg, Store: u})
				}
			}
		}
	}
	sort.Slice(sites, func(i, j int) bool {
		if sites[i].Def != sites[j].Def {
			return sites[i].Def < sites[j].Def
		}
		return sites[i].Store < sites[j].Store
	})
	return sites, nil
}

// EscapeStats summarises an escape profile per function for report
// tables: how many tagged definitions escape to memory in each function.
type EscapeStats struct {
	Func    string
	Defs    int // distinct escaping definitions
	Stores  int // distinct stores receiving tagged values
	Escapes int // (def, store) pairs
}

// EscapesByFunc folds an escape profile into per-function rows, ordered
// by function position in the program.
func EscapesByFunc(p *isa.Program, sites []EscapeSite) []EscapeStats {
	rows := make([]EscapeStats, 0, len(p.Funcs))
	for _, f := range p.Funcs {
		defs := make(map[int]bool)
		stores := make(map[int]bool)
		n := 0
		for _, s := range sites {
			if s.Def >= f.Start && s.Def < f.End {
				defs[s.Def] = true
				stores[s.Store] = true
				n++
			}
		}
		if n == 0 {
			continue
		}
		rows = append(rows, EscapeStats{Func: f.Name, Defs: len(defs), Stores: len(stores), Escapes: n})
	}
	return rows
}
