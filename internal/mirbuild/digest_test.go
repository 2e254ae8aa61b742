package mirbuild_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/jitbull/jitbull/internal/engine"
	"github.com/jitbull/jitbull/internal/mir"
	"github.com/jitbull/jitbull/internal/octane"
	"github.com/jitbull/jitbull/internal/passes"
	"github.com/jitbull/jitbull/internal/progen"
	"github.com/jitbull/jitbull/internal/variants"
	"github.com/jitbull/jitbull/internal/vulndb"
)

var updateDigests = flag.Bool("update-digests", false,
	"rewrite testdata/build_digests.txt from this build (only for a change meant to alter built graphs)")

const digestsFile = "testdata/build_digests.txt"

// corpusProgram is one source with the engine configuration it is compiled
// under.
type corpusProgram struct {
	name string
	src  string
	cfg  engine.Config
}

// digestCorpus is every source the repository's corpus tests compile: the
// Octane analogues at scales 1 and 4, each demonstrator with its manual and
// generated variants on its vulnerable engine, the compile_storm programs,
// osr_loops-shaped programs with OSR and speculation on, and difftest's
// progen seeds.
func digestCorpus(t *testing.T) []corpusProgram {
	t.Helper()
	var out []corpusProgram
	for _, b := range octane.All() {
		for _, scale := range []int{1, 4} {
			out = append(out, corpusProgram{fmt.Sprintf("octane/%s/%d", b.Name, scale), b.Source(scale),
				engine.Config{IonThreshold: 40}})
		}
	}
	for _, v := range vulndb.All() {
		srcs := []struct{ kind, src string }{
			{"demo", v.Demonstrator}, {"reorder", v.ReorderVariant}, {"split", v.SplitVariant},
		}
		for _, gen := range []struct {
			kind string
			f    func(string) (string, error)
		}{{"rename", variants.Rename}, {"minify", variants.Minify}} {
			src, err := gen.f(v.Demonstrator)
			if err != nil {
				t.Fatalf("%s %s: %v", v.CVE, gen.kind, err)
			}
			srcs = append(srcs, struct{ kind, src string }{gen.kind, src})
		}
		for _, s := range srcs {
			if s.src != "" {
				out = append(out, corpusProgram{v.CVE + "/" + s.kind, s.src, engine.Config{Bugs: v.Bug()}})
			}
		}
	}
	for seed := int64(1000); seed < 1048; seed++ {
		out = append(out, corpusProgram{fmt.Sprintf("storm/%d", seed),
			progen.Generate(seed, progen.Options{Funcs: 8, MaxStmts: 10, Train: 130}),
			engine.Config{IonThreshold: 100}})
	}
	for seed := int64(1000); seed < 1030; seed++ {
		out = append(out, corpusProgram{fmt.Sprintf("osr/%d", seed),
			progen.Generate(seed, progen.Options{HotLoops: true, HotIters: 200, HotCalls: 3, Train: 10}),
			engine.Config{IonThreshold: 100, OSR: true, Speculate: true}})
	}
	for seed := int64(0); seed < 60; seed++ {
		out = append(out, corpusProgram{fmt.Sprintf("progen/%d", seed),
			progen.Generate(seed, progen.Options{}), engine.Config{IonThreshold: 30}})
	}
	return out
}

// capturePass runs RenumberInstructions, the pipeline's first pass, and
// hands the renumbered graph — what mirbuild built — to record.
type capturePass struct {
	passes.Pass
	record func(g *mir.Graph)
}

func (p capturePass) Run(g *mir.Graph, ctx *passes.Context) error {
	err := p.Pass.Run(g, ctx)
	p.record(g)
	return err
}

// buildDigests compiles the corpus, two programs at a time, and returns
// one digest per compile, keyed "program function#n" for the n-th compile
// of the function.
func buildDigests(t *testing.T) map[string]string {
	t.Helper()
	var (
		mu   sync.Mutex
		out  = map[string]string{}
		errs []error
		wg   sync.WaitGroup
	)
	work := make(chan corpusProgram)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range work {
				seen := map[string]int{}
				pl := passes.Pipeline()
				pl[0] = capturePass{Pass: pl[0], record: func(g *mir.Graph) {
					seen[g.Name]++
					d := graphDigest(g)
					mu.Lock()
					out[fmt.Sprintf("%s %s#%d", p.name, g.Name, seen[g.Name])] = d
					mu.Unlock()
				}}
				cfg := p.cfg
				cfg.Passes = pl
				e, err := engine.New(p.src, cfg)
				if err != nil {
					mu.Lock()
					errs = append(errs, fmt.Errorf("%s: %w", p.name, err))
					mu.Unlock()
					continue
				}
				_, _ = e.Run() // demonstrators crash by design; only the graphs matter
			}
		}()
	}
	for _, p := range digestCorpus(t) {
		work <- p
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		t.Error(err)
	}
	return out
}

// graphDigest hashes a canonical rendering of g: blocks in reverse
// postorder with their edges, and every live instruction with its opcode,
// type, payload and operands. Two kinds of instruction float: φs, and the
// NaN constants that model reads of an undefined local, which the builder
// prepends to the entry block as it prepends φs. The order of either within
// a block records only the order the builder made them in, so floating
// instructions are named by a colour refined from their block, operands
// and uses (Weisfeiler–Lehman style) until the partition is stable, and
// rendered sorted by colour; every other instruction is named by its
// position.
func graphDigest(g *mir.Graph) string {
	rpo := g.ReversePostorder()
	bpos := map[*mir.Block]int{}
	for i, b := range rpo {
		bpos[b] = i
	}
	isUndef := func(in *mir.Instr) bool {
		return in.Op == mir.OpConstant && math.IsNaN(in.Num) && in.Block == rpo[0]
	}
	type use struct {
		user *mir.Instr
		idx  int
	}
	fixed := map[*mir.Instr]int{}
	uses := map[*mir.Instr][]use{}
	var floating []*mir.Instr
	for _, b := range rpo {
		for _, in := range b.Instrs {
			if in.Dead {
				continue
			}
			if in.Op == mir.OpPhi || isUndef(in) {
				floating = append(floating, in)
			} else {
				fixed[in] = len(fixed)
			}
			for k, op := range in.Operands {
				uses[op] = append(uses[op], use{in, k})
			}
		}
	}
	colour := map[*mir.Instr]uint64{}
	label := func(in *mir.Instr) uint64 {
		if n, ok := fixed[in]; ok {
			return 1<<32 | uint64(n)
		}
		return colour[in]
	}
	refine := func(in *mir.Instr) uint64 {
		h := fnv.New64a()
		var buf [8]byte
		put := func(v uint64) {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
		put(uint64(in.Op))
		put(uint64(bpos[in.Block]))
		put(uint64(in.Type))
		for _, op := range in.Operands {
			put(label(op))
		}
		var us []uint64
		for _, u := range uses[in] {
			us = append(us, label(u.user)*31+uint64(u.idx))
		}
		sort.Slice(us, func(i, j int) bool { return us[i] < us[j] })
		for _, u := range us {
			put(u)
		}
		return h.Sum64()
	}
	distinct := func() int {
		set := map[uint64]bool{}
		for _, c := range colour {
			set[c] = true
		}
		return len(set)
	}
	for _, in := range floating {
		colour[in] = uint64(in.Op)<<32 | uint64(bpos[in.Block])
	}
	for n := distinct(); ; {
		next := make(map[*mir.Instr]uint64, len(floating))
		for _, in := range floating {
			next[in] = refine(in)
		}
		colour = next
		m := distinct()
		if m == n {
			break
		}
		n = m
	}
	name := map[*mir.Instr]string{}
	for in, n := range fixed {
		name[in] = fmt.Sprintf("n%d", n)
	}
	sortedFloating := map[*mir.Block][]*mir.Instr{}
	for _, in := range floating {
		sortedFloating[in.Block] = append(sortedFloating[in.Block], in)
	}
	for b, fl := range sortedFloating {
		sort.SliceStable(fl, func(i, j int) bool { return colour[fl[i]] < colour[fl[j]] })
		for i, in := range fl {
			name[in] = fmt.Sprintf("p%d.%d", bpos[b], i)
		}
	}
	var sb strings.Builder
	render := func(in *mir.Instr) {
		fmt.Fprintf(&sb, "  %s = %s %s", name[in], in.Op, in.Type)
		switch in.Op {
		case mir.OpConstant:
			fmt.Fprintf(&sb, " %x", math.Float64bits(in.Num))
		case mir.OpPhi:
		default:
			fmt.Fprintf(&sb, " aux=%d", in.Aux)
		}
		for _, op := range in.Operands {
			sb.WriteString(" " + name[op])
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "%s params=%d\n", g.Name, g.NumParams)
	for _, b := range rpo {
		fmt.Fprintf(&sb, "b%d depth=%d preds", bpos[b], b.LoopDepth)
		for _, p := range b.Preds {
			fmt.Fprintf(&sb, " b%d", bpos[p])
		}
		sb.WriteString(" succs")
		for _, s := range b.Succs {
			fmt.Fprintf(&sb, " b%d", bpos[s])
		}
		sb.WriteByte('\n')
		for _, in := range sortedFloating[b] {
			render(in)
		}
		for _, in := range b.Instrs {
			if _, ok := fixed[in]; ok {
				render(in)
			}
		}
	}
	sum := sha256.Sum256([]byte(sb.String()))
	return hex.EncodeToString(sum[:12])
}

// TestBuildDigestsGolden: every function the corpus compiles builds to the
// graph recorded in testdata/build_digests.txt, up to the order of φs
// within a block. A compile the file does not list (a function that failed
// to build when it was recorded) is only counted.
func TestBuildDigestsGolden(t *testing.T) {
	got := buildDigests(t)
	if *updateDigests {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var sb strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&sb, "%s %s\n", k, got[k])
		}
		if err := os.WriteFile(digestsFile, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(digestsFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		want[line[:i]] = line[i+1:]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for k, w := range want {
		switch g, ok := got[k]; {
		case !ok:
			t.Errorf("%s: no longer compiled", k)
		case g != w:
			t.Errorf("%s: digest %s, want %s", k, g, w)
		}
	}
	t.Logf("%d compiles match the golden, %d are new", len(want), len(got)-len(want))
}
