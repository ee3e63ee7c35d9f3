package analysis_test

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"hash"
	"os"
	"sort"
	"strings"
	"testing"

	"etap/internal/analysis"
	"etap/internal/apps/all"
	"etap/internal/core"
	"etap/internal/harden"
	"etap/internal/minic"
)

// TestAnalysisGolden pins every static-analysis output byte for byte:
// the CVar report, escapes, liveness classification, dominator trees,
// hardened text and its verification on the seven benchmark apps, and
// reaching definitions plus the report on generated programs. Each line
// of testdata/analysis.golden is the sha256 of one output, so any change
// in any bit of any result shows up as a named mismatch. There is no
// update flag: the file changes only with a deliberate change of output.
func TestAnalysisGolden(t *testing.T) {
	want := readGolden(t, "testdata/analysis.golden")
	got := analysisDigests(t)
	for _, k := range sortedKeys(want) {
		g, ok := got[k]
		switch {
		case !ok:
			t.Errorf("%s: not computed", k)
		case g != want[k]:
			t.Errorf("%s: sha256 %s, golden %s", k, g, want[k])
		}
	}
	for _, k := range sortedKeys(got) {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: sha256 %s missing from golden", k, got[k])
		}
	}
}

var goldenPolicies = []core.Policy{core.PolicyControl, core.PolicyControlAddr, core.PolicyConservative}

var goldenVariants = []harden.Options{harden.DefaultOptions(), {DupCompare: true}, {Signatures: true}}

func analysisDigests(t *testing.T) map[string]string {
	t.Helper()
	out := make(map[string]string)
	sum := func(key string, write func(h hash.Hash)) {
		h := sha256.New()
		write(h)
		out[key] = fmt.Sprintf("%x", h.Sum(nil))
	}
	for _, name := range all.Names() {
		a, _ := all.ByName(name)
		prog, err := minic.Build(a.Source())
		if err != nil {
			t.Fatalf("%s: build: %v", name, err)
		}
		c, err := analysis.Classify(prog)
		if err != nil {
			t.Fatalf("%s: classify: %v", name, err)
		}
		sum(name+" classify", func(h hash.Hash) { writeClassify(h, c) })
		sum(name+" dominators", func(h hash.Hash) {
			rep, err := core.Analyze(prog, core.PolicyControl)
			if err != nil {
				t.Fatalf("%s: analyze: %v", name, err)
			}
			for fi, cfg := range rep.CFGs {
				fmt.Fprintf(h, "%d %v\n", fi, analysis.Dominators(cfg).Idom)
			}
		})
		for _, pol := range goldenPolicies {
			rep, err := core.Analyze(prog, pol)
			if err != nil {
				t.Fatalf("%s/%s: analyze: %v", name, pol, err)
			}
			sum(fmt.Sprintf("%s %s report", name, pol), func(h hash.Hash) { writeReport(h, rep) })
			esc, err := analysis.Escapes(rep)
			if err != nil {
				t.Fatalf("%s/%s: escapes: %v", name, pol, err)
			}
			sum(fmt.Sprintf("%s %s escapes", name, pol), func(h hash.Hash) { fmt.Fprintf(h, "%v", esc) })
			for _, opts := range goldenVariants {
				res, err := harden.Harden(rep, opts)
				if err != nil {
					t.Fatalf("%s/%s/%s: harden: %v", name, pol, opts, err)
				}
				key := fmt.Sprintf("%s %s %s", name, pol, opts)
				sum(key+" text", func(h hash.Hash) {
					for _, in := range res.Prog.Text {
						fmt.Fprintf(h, "%d %d %d %d %d\n", in.Op, in.Rd, in.Rs, in.Rt, in.Imm)
					}
					fmt.Fprintf(h, "%v %d\n", res.Prog.Funcs, res.Prog.Entry)
				})
				hrep, err := core.Analyze(res.Prog, pol)
				if err != nil {
					t.Fatalf("%s: re-analyze: %v", key, err)
				}
				sum(key+" report", func(h hash.Hash) { writeReport(h, hrep) })
				hc, err := analysis.Classify(res.Prog)
				if err != nil {
					t.Fatalf("%s: classify: %v", key, err)
				}
				sum(key+" classify", func(h hash.Hash) { writeClassify(h, hc) })
				v, err := analysis.Verify(res)
				if err != nil {
					t.Fatalf("%s: verify: %v", key, err)
				}
				sum(key+" verify", func(h hash.Hash) {
					fmt.Fprintf(h, "%d %d %d %d %d", v.SigBlocks, v.SigChecked, v.DupChecks, v.DupSites, len(v.Violations))
				})
			}
		}
	}
	for seed := int64(500); seed < 525; seed++ {
		prog, err := minic.Build(minic.GenProgram(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		dus, err := analysis.ReachingDefs(prog)
		if err != nil {
			t.Fatalf("seed %d: reaching defs: %v", seed, err)
		}
		sum(fmt.Sprintf("gen%d reachdefs", seed), func(h hash.Hash) {
			for _, du := range dus {
				fmt.Fprintf(h, "%v %v\n", du.Defs, du.DefUses)
				for _, k := range sortedKeys(du.UseDefs) {
					fmt.Fprintf(h, "%d:%v\n", k, du.UseDefs[k])
				}
			}
		})
		for _, pol := range goldenPolicies {
			rep, err := core.Analyze(prog, pol)
			if err != nil {
				t.Fatalf("seed %d/%s: analyze: %v", seed, pol, err)
			}
			sum(fmt.Sprintf("gen%d %s report", seed, pol), func(h hash.Hash) { writeReport(h, rep) })
		}
	}
	return out
}

func writeReport(h hash.Hash, r *core.Report) {
	fmt.Fprintf(h, "%v\n%v\n%d\n%d\n", r.Tagged, r.ControlSlice, r.CVarIn, r.CVarOut)
	for _, s := range r.Summaries {
		fmt.Fprintf(h, "%d %t\n", s.ArgsControl, s.RetControl)
	}
	for _, cfg := range r.CFGs {
		for _, b := range cfg.Blocks {
			fmt.Fprintf(h, "%d %d %v %t\n", b.Start, b.End, b.Succs, b.Return)
		}
	}
}

func writeClassify(h hash.Hash, c *analysis.Classification) {
	fmt.Fprintf(h, "%d\n%v\n%t %d %d\n", c.Live.LiveOut, c.Benign, c.Live.Precise, c.Injectable, c.BenignInjectable)
}

func readGolden(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("%s: malformed line %q", path, line)
		}
		want[line[:i]] = line[i+1:]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

func sortedKeys[K int | string, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
