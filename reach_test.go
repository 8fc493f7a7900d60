package zen2ee

// The reachability scan: every package-level function, method, type,
// constant and variable of the module must be used by code that runs
// outside the tests, or by a root Example or Benchmark function. It
// type-checks the module from source with go/types, taking only the
// standard library from the go tool's export data, so it needs nothing
// beyond the toolchain.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachAllowed lists the objects only tests use, each with the reason it
// stays: the tests that need it and what for. They are test oracles (a
// second derivation a test compares the model against) and observation
// points (state a test reads that the product paths have no need to).
var reachAllowed = map[string]string{
	"zen2ee/internal/dist.Coordinator.LeasesInflight": "observation point: TestLeaseExecuteComplete, TestWorkersStatusAndCounters and TestE2EWorkerProcessKilledMidSweep (dist) count the leases workers hold",
	"zen2ee/internal/dist.Coordinator.PendingTasks":   "observation point: TestBatchedLeaseGrantsMultipleTasks, TestLeaseGrantBoundedByTwiceSlots and TestLeaseGrantsOldestEligibleFirst (dist) count the undispatched tasks",
	"zen2ee/internal/dist.Coordinator.RetriesTotal":   "observation point: the lease-loss tests (TestLeaseExpiryRetriesOnSurvivor, TestExhaustedRetriesPinLocal, TestDistributedSweepSurvivesWorkerKilledMidSweep, ...) count re-queued leases",
	"zen2ee/internal/dvfs.Controller.AppliedPState":   "observation point: the dvfs transition tests (TestBasicTransitionTiming, TestUniformSlotDistribution, ...) wait for the applied P-state",
	"zen2ee/internal/machine.Machine.Running":         "observation point: TestWakeLatencies (machine), TestStopIdlesThreads and TestPatternSurvivesOfflineThread (phases) check a thread's run state",
	"zen2ee/internal/machine.Machine.WakeLatency":     "test oracle: TestWakeLatencies (machine) compares StartKernel's wake latency with it; TestWakeLatencyAPI (root) reads it",
	"zen2ee/internal/measure.PowerAnalyzer.Samples":   "observation point: TestAnalyzerSamplesAveragePower and TestAnalyzerDropoutTolerance (measure) inspect the raw sample stream",
	"zen2ee/internal/msr.CounterDeltaJoules":          "test oracle: TestCounterWrap32Bit (rapl) and TestEnergyCounterWrap (msr) decode wrapped energy counters as a reader would",
	"zen2ee/internal/obs.Trace.Dropped":               "observation point: TestTraceByteBoundDropsNotGrows and TestNilTraceIsDisabledRecorder (obs) pin the byte budget's dropped count",
	"zen2ee/internal/obs.Trace.Len":                   "observation point: TestTraceByteBoundDropsNotGrows and TestTraceConcurrentAdd (obs) pin the retained span count",
	"zen2ee/internal/osmodel.MeanIPC":                 "test oracle: TestPerfStatObservesFrequency (osmodel) averages the perf IPC series",
	"zen2ee/internal/phases.SquareWave":               "test fixture: TestSquareWavePowerFollowsLoad, TestIdlePhasesReachDeepSleep and TestValidate (phases) build their load patterns with it",
	"zen2ee/internal/rapl.Model.SetCorePower":         "test fixture: the rapl tests (TestEnergyAccumulation, TestLazyDomainsMatchEagerFolding, ...) feed a core domain without a machine",
	"zen2ee/internal/rapl.Model.Stop":                 "test fixture: TestIdleMachineParksSMU (machine) stops the RAPL noise step to count the SMU's events alone",
	"zen2ee/internal/rapl.Model.trueJoules":           "test oracle: TestUpdateQuantization and TestClassFeedsMatchEagerFolding (rapl) compare the counters with the true energy",
	"zen2ee/internal/report.SweepSection.Document":    "test oracle: the sweep determinism matrices (TestSweepDeterminismMatrix, TestSweepEndToEnd, ...) compare a parsed section with the standalone run's document",
	"zen2ee/internal/report.UnmarshalSweep":           "test oracle: the sweep determinism matrices and TestSweepWriterErrors (report) parse sweep documents",
	"zen2ee/internal/sim.Engine.Drain":                "test fixture: TestDrainLimit and the parked-ticker tests (sim) run a bounded number of events",
	"zen2ee/internal/sim.Engine.PendingEvents":        "observation point: TestPendingEvents, TestCancelRemovesFromQueue and TestParkedTickerReports (sim) count queued events",
	"zen2ee/internal/smu.Manager.Stop":                "test fixture: TestCapStepDerivesOncePerClass (machine) stops the SMU to step caps by hand",
	"zen2ee/internal/smu.Manager.ThrottledTicks":      "observation point: TestLightWorkloadNotThrottled (smu) counts throttled ticks",
	"zen2ee/internal/soc.Config.TotalThreads":         "observation point: TestPresetSizes (soc) pins the 7742 preset's thread count",
	"zen2ee/internal/soc.Topology.CCDOf":              "observation point: TestCCXGrouping (soc) checks which CCD a CCX belongs to",
	"zen2ee/internal/soc.Topology.CCXOf":              "observation point: TestCCXGrouping (soc) checks which CCX a core belongs to",
	"zen2ee/internal/soc.Topology.SameCCX":            "observation point: TestCCXGrouping (soc) checks which cores share an L3",
	"zen2ee/internal/tenant.Gate.Waiting":             "observation point: the gate tests (waitWaiters) and TestInteractiveTenantNotStarvedByBulkSweep (service) wait for queued acquisitions",
}

func TestNoUnreachedCode(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source; skipped under -short")
	}
	declared, used := scanModule(t)
	var unreached, stale []string
	for key, pos := range declared {
		_, allowed := reachAllowed[key]
		if !used[key] && !allowed {
			unreached = append(unreached, fmt.Sprintf("%s (%s)", key, pos))
		}
	}
	for key := range reachAllowed {
		if _, ok := declared[key]; !ok {
			stale = append(stale, key+": not declared")
		} else if used[key] {
			stale = append(stale, key+": reached outside the tests")
		}
	}
	sort.Strings(unreached)
	sort.Strings(stale)
	if len(unreached) > 0 {
		t.Errorf("%d objects are reached only by tests or not at all; delete them or list them in reachAllowed with the test that needs them:\n\t%s",
			len(unreached), strings.Join(unreached, "\n\t"))
	}
	if len(stale) > 0 {
		t.Errorf("stale reachAllowed entries:\n\t%s", strings.Join(stale, "\n\t"))
	}
}

const modulePath = "zen2ee"

// listedPackage is the part of `go list -json` the scan reads.
type listedPackage struct {
	ImportPath   string
	Dir          string
	Standard     bool
	Export       string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
}

func goList(t *testing.T, dir string, args ...string) []listedPackage {
	t.Helper()
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			t.Fatalf("go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

const listFields = "-json=ImportPath,Dir,Standard,GoFiles,TestGoFiles,XTestGoFiles"

// scanner type-checks several views of the module (the default build, the
// simcheck build, the root package with its tests, the bench module) over
// one file set and one standard-library importer, and records which
// module objects each view's counted code uses.
type scanner struct {
	t    *testing.T
	fset *token.FileSet
	std  types.ImporterFrom
	// files holds every parsed file by path.
	files map[string]*ast.File
	// scope maps the position of a declared name to the extent of its
	// declaration, so that a use inside it (recursion, a self-referencing
	// type) does not count.
	scope map[token.Pos][2]token.Pos
	// receivers holds the positions of receiver type names: a method's
	// receiver does not use its type.
	receivers map[token.Pos]bool

	declared map[string]token.Position
	used     map[string]bool
}

// view is one type-checked build of the module's packages.
type view struct {
	pkgs  map[string]*types.Package
	infos []*types.Info
}

func scanModule(t *testing.T) (map[string]token.Position, map[string]bool) {
	s := &scanner{
		t:         t,
		fset:      token.NewFileSet(),
		files:     map[string]*ast.File{},
		scope:     map[token.Pos][2]token.Pos{},
		receivers: map[token.Pos]bool{},
		declared:  map[string]token.Position{},
		used:      map[string]bool{},
	}
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	plain := goList(t, root, "-deps", listFields, "./...")
	tagged := goList(t, root, "-deps", "-tags=simcheck", listFields, "./...")
	bench := goList(t, filepath.Join(root, "bench"), listFields, "./...")

	// Parse everything first so the standard-library imports are known.
	for _, set := range [][]listedPackage{plain, tagged, bench} {
		for _, p := range set {
			if p.Standard {
				continue
			}
			s.parse(p.Dir, p.GoFiles)
			if p.ImportPath == modulePath {
				s.parse(p.Dir, p.TestGoFiles)
				s.parse(p.Dir, p.XTestGoFiles)
			}
		}
	}
	s.loadStd(root)

	def, rootPkg := s.checkBuild(plain)
	s.checkBuild(tagged)
	s.rootTests(rootPkg, def)
	// The bench module calls into the module from outside.
	for _, p := range bench {
		fs := s.get(p.Dir, p.GoFiles)
		_, info := s.check(p.ImportPath, fs, def.pkgs)
		s.countFiles(info, fs)
	}
	return s.declared, s.used
}

func (s *scanner) parse(dir string, names []string) {
	for _, n := range names {
		path := filepath.Join(dir, n)
		if s.files[path] != nil {
			continue
		}
		f, err := parser.ParseFile(s.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			s.t.Fatal(err)
		}
		s.files[path] = f
		s.index(f)
	}
}

func (s *scanner) get(dir string, names []string) []*ast.File {
	var out []*ast.File
	for _, n := range names {
		out = append(out, s.files[filepath.Join(dir, n)])
	}
	return out
}

// loadStd builds the standard-library importer from the export data the go
// tool lists for every standard package the parsed files import.
func (s *scanner) loadStd(root string) {
	paths := []string{"-deps", "-export", "-json=ImportPath,Export"}
	seen := map[string]bool{}
	for _, f := range s.files {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if !inModule(path) && path != "unsafe" && !seen[path] {
				seen[path] = true
				paths = append(paths, path)
			}
		}
	}
	exports := map[string]string{}
	for _, p := range goList(s.t, root, paths...) {
		exports[p.ImportPath] = p.Export
	}
	s.std = importer.ForCompiler(s.fset, "gc", func(path string) (io.ReadCloser, error) {
		f := exports[path]
		if f == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}).(types.ImporterFrom)
}

// checkBuild type-checks one build of the module's packages, listed in
// dependency order, and counts every use in their files. It returns the
// build and the root package's listing.
func (s *scanner) checkBuild(set []listedPackage) (view, listedPackage) {
	v := view{pkgs: map[string]*types.Package{}}
	var rootPkg listedPackage
	for _, p := range set {
		if p.Standard {
			continue
		}
		fs := s.get(p.Dir, p.GoFiles)
		pkg, info := s.check(p.ImportPath, fs, v.pkgs)
		v.pkgs[p.ImportPath] = pkg
		v.infos = append(v.infos, info)
		s.declare(pkg)
		s.countFiles(info, fs)
		if p.ImportPath == modulePath {
			rootPkg = p
		}
	}
	s.satisfied(v)
	return v, rootPkg
}

func inModule(path string) bool {
	return path == modulePath || strings.HasPrefix(path, modulePath+"/")
}

// index records the declaration extents and receiver positions of f.
func (s *scanner) index(f *ast.File) {
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			s.scope[d.Name.Pos()] = [2]token.Pos{d.Pos(), d.End()}
			if d.Recv != nil {
				ast.Inspect(d.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						s.receivers[id.Pos()] = true
					}
					return true
				})
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					s.scope[sp.Name.Pos()] = [2]token.Pos{sp.Pos(), sp.End()}
				case *ast.ValueSpec:
					for _, n := range sp.Names {
						s.scope[n.Pos()] = [2]token.Pos{sp.Pos(), sp.End()}
					}
				}
			}
		}
	}
}

func (s *scanner) check(path string, files []*ast.File, mod map[string]*types.Package) (*types.Package, *types.Info) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: importerFunc(func(p string) (*types.Package, error) {
		if pkg, ok := mod[p]; ok {
			return pkg, nil
		}
		if p == "unsafe" {
			return types.Unsafe, nil
		}
		return s.std.ImportFrom(p, "", 0)
	})}
	pkg, err := conf.Check(path, s.fset, files, info)
	if err != nil {
		s.t.Fatalf("type-checking %s: %v", path, err)
	}
	return pkg, info
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// key names a package-level object of the module: "path.Name" for a
// function, type, constant or variable, "path.Type.Method" for a method.
func key(obj types.Object) (string, bool) {
	if obj == nil || obj.Pkg() == nil || !inModule(obj.Pkg().Path()) || obj.Name() == "_" {
		return "", false
	}
	path := obj.Pkg().Path()
	switch o := obj.(type) {
	case *types.Func:
		o = o.Origin()
		if recv := o.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok || types.IsInterface(named) {
				return "", false
			}
			return path + "." + named.Obj().Name() + "." + o.Name(), true
		}
		return path + "." + o.Name(), true
	case *types.Var:
		if o.IsField() || o.Parent() != o.Pkg().Scope() {
			return "", false
		}
	case *types.Const, *types.TypeName:
		if o.Parent() != o.Pkg().Scope() {
			return "", false
		}
	default:
		return "", false
	}
	return path + "." + obj.Name(), true
}

// declare records pkg's package-level objects and the methods of its types.
func (s *scanner) declare(pkg *types.Package) {
	sc := pkg.Scope()
	for _, name := range sc.Names() {
		obj := sc.Lookup(name)
		if fn, ok := obj.(*types.Func); ok && pkg.Name() == "main" && fn.Name() == "main" {
			continue
		}
		if k, ok := key(obj); ok {
			s.declared[k] = s.fset.Position(obj.Pos())
		}
		if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
			if named, ok := tn.Type().(*types.Named); ok {
				for i := 0; i < named.NumMethods(); i++ {
					if k, ok := key(named.Method(i)); ok {
						s.declared[k] = s.fset.Position(named.Method(i).Pos())
					}
				}
			}
		}
	}
}

// use counts a use of obj at pos unless it lies inside obj's own
// declaration or names a method receiver's type.
func (s *scanner) use(obj types.Object, pos token.Pos) {
	if s.receivers[pos] {
		return
	}
	if fn, ok := obj.(*types.Func); ok {
		obj = fn.Origin()
	}
	if r, ok := s.scope[obj.Pos()]; ok && pos >= r[0] && pos < r[1] {
		return
	}
	if k, ok := key(obj); ok {
		s.used[k] = true
	}
}

// countNode counts every use inside n. A selection also uses the named
// type it selects from, so a type whose values are only ever reached
// through its methods and fields counts as used.
func (s *scanner) countNode(info *types.Info, n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if obj := info.Uses[n]; obj != nil {
				s.use(obj, n.Pos())
			}
		case *ast.SelectorExpr:
			if sel := info.Selections[n]; sel != nil {
				t := sel.Recv()
				if p, ok := t.(*types.Pointer); ok {
					t = p.Elem()
				}
				if named, ok := t.(*types.Named); ok {
					s.use(named.Origin().Obj(), n.Pos())
				}
			}
		}
		return true
	})
}

func (s *scanner) countFiles(info *types.Info, files []*ast.File) {
	for _, f := range files {
		s.countNode(info, f)
	}
}

// satisfied counts a method as used when its type implements an interface
// of the module or of the standard library that declares it: the method
// may be called through that interface.
func (s *scanner) satisfied(v view) {
	var ifaces []*types.Interface
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		sc := p.Scope()
		for _, name := range sc.Names() {
			if tn, ok := sc.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, p := range v.pkgs {
		visit(p)
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, info := range v.infos {
		for _, tv := range info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
	}
	for _, p := range v.pkgs {
		sc := p.Scope()
		for _, name := range sc.Names() {
			tn, ok := sc.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) || named.TypeParams().Len() > 0 {
				continue
			}
			ptr := types.NewPointer(named)
			mset := types.NewMethodSet(ptr)
			for _, it := range ifaces {
				if mset.Lookup(it.Method(0).Pkg(), it.Method(0).Name()) == nil || !types.Implements(ptr, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					m := it.Method(i)
					if sel := mset.Lookup(m.Pkg(), m.Name()); sel != nil {
						if k, ok := key(sel.Obj()); ok {
							s.used[k] = true
						}
					}
				}
			}
		}
	}
}

// rootTests counts the root package's Example and Benchmark functions and
// the test-file helpers they reach; the other tests do not count.
func (s *scanner) rootTests(p listedPackage, v view) {
	internal := append(s.get(p.Dir, p.GoFiles), s.get(p.Dir, p.TestGoFiles)...)
	pkg, info := s.check(p.ImportPath, internal, v.pkgs)
	s.reachFromRoots(info, s.get(p.Dir, p.TestGoFiles))
	if len(p.XTestGoFiles) == 0 {
		return
	}
	mod := map[string]*types.Package{}
	for k, v := range v.pkgs {
		mod[k] = v
	}
	mod[p.ImportPath] = pkg
	xfiles := s.get(p.Dir, p.XTestGoFiles)
	_, xinfo := s.check(p.ImportPath+"_test", xfiles, mod)
	s.reachFromRoots(xinfo, xfiles)
}

func (s *scanner) reachFromRoots(info *types.Info, files []*ast.File) {
	// decls maps each test-file object's position to its declaration.
	decls := map[token.Pos]ast.Node{}
	var work []ast.Node
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				decls[d.Name.Pos()] = d
				name := d.Name.Name
				if d.Recv == nil && (strings.HasPrefix(name, "Example") || strings.HasPrefix(name, "Benchmark")) {
					work = append(work, d)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						decls[sp.Name.Pos()] = sp
					case *ast.ValueSpec:
						for _, n := range sp.Names {
							decls[n.Pos()] = sp
						}
					}
				}
			}
		}
	}
	done := map[ast.Node]bool{}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		if done[n] {
			continue
		}
		done[n] = true
		s.countNode(info, n)
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := info.Uses[id]; obj != nil {
					if d, ok := decls[obj.Pos()]; ok {
						work = append(work, d)
					}
				}
			}
			return true
		})
	}
}
