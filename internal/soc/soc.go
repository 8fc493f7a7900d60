// Package soc models the physical topology of AMD Zen 2 ("Rome") systems:
// packages (sockets) containing up to eight Core Complex Dies (CCDs), each
// with two Core Complexes (CCXs) of four cores and 16 MiB L3 (4 MiB per
// slice), attached to a central I/O die with up to eight Unified Memory
// Controllers (UMCs).
//
// Logical CPU numbering follows the Linux convention observed on the paper's
// test system: the first hardware thread of every core, package by package,
// then all second threads, again grouped by package. A topology is the
// fixed structure of a processor model: a thread's online state is not
// part of it (the C-state model, cstate, owns it), so every machine of one
// Config shares one read-only Topology.
package soc

import (
	"fmt"
	"sync"
)

// Identifiers are dense indices into the System's flat slices.
type (
	// ThreadID indexes a hardware thread (logical CPU).
	ThreadID int
	// CoreID indexes a physical core.
	CoreID int
	// CCXID indexes a core complex.
	CCXID int
	// CCDID indexes a core complex die.
	CCDID int
	// PackageID indexes a socket.
	PackageID int
)

// Thread is a hardware thread (SMT sibling).
type Thread struct {
	ID   ThreadID
	Core CoreID
	SMT  int // 0 = first sibling, 1 = second
}

// Core is a physical Zen 2 core: 32 KiB L1I/L1D, 512 KiB L2, two SMT threads.
type Core struct {
	ID      CoreID
	CCX     CCXID
	Threads [2]ThreadID
}

// CCX is a core complex: four cores sharing 16 MiB of L3.
type CCX struct {
	ID    CCXID
	CCD   CCDID
	Cores []CoreID
}

// CCD is a core complex die holding two CCXs.
type CCD struct {
	ID      CCDID
	Package PackageID
	CCXs    []CCXID
}

// Package is a socket: CCDs plus one I/O die with UMCs.
type Package struct {
	ID    PackageID
	CCDs  []CCDID
	Cores []CoreID // in ID order
	// UMCs is the number of unified memory controllers (2 channels each).
	UMCs int
}

// Config describes a processor model to instantiate.
type Config struct {
	Name           string
	Packages       int
	CCDsPerPackage int
	CCXsPerCCD     int
	CoresPerCCX    int
	UMCsPerPackage int
	// TDPWatts is the rated thermal design power per package.
	TDPWatts float64
	// NominalMHz is the rated (non-boost) frequency.
	NominalMHz int
	// MinMHz is the lowest P-state frequency.
	MinMHz int
	// BoostMHz is the maximum single-core boost frequency.
	BoostMHz int
	// EDCAmps is the electrical design current limit per package.
	EDCAmps float64
}

// EPYC7502x2 returns the paper's test system: two EPYC 7502 (32 cores,
// 4 CCDs each), TDP 180 W, frequencies 1.5/2.2/2.5 GHz.
func EPYC7502x2() Config {
	return Config{
		Name:           "2x AMD EPYC 7502",
		Packages:       2,
		CCDsPerPackage: 4,
		CCXsPerCCD:     2,
		CoresPerCCX:    4,
		UMCsPerPackage: 8,
		TDPWatts:       180,
		NominalMHz:     2500,
		MinMHz:         1500,
		BoostMHz:       3350,
		EDCAmps:        140,
	}
}

// EPYC7742x2 returns a dual-socket 64-core Rome configuration (the paper's
// future-work target: higher compute-to-I/O ratio).
func EPYC7742x2() Config {
	return Config{
		Name:           "2x AMD EPYC 7742",
		Packages:       2,
		CCDsPerPackage: 8,
		CCXsPerCCD:     2,
		CoresPerCCX:    4,
		UMCsPerPackage: 8,
		TDPWatts:       225,
		NominalMHz:     2250,
		MinMHz:         1500,
		BoostMHz:       3400,
		EDCAmps:        220,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Packages <= 0:
		return fmt.Errorf("soc: %s: packages must be positive", c.Name)
	case c.CCDsPerPackage <= 0 || c.CCDsPerPackage > 8:
		return fmt.Errorf("soc: %s: CCDs per package must be in 1..8", c.Name)
	case c.CCXsPerCCD <= 0 || c.CCXsPerCCD > 2:
		return fmt.Errorf("soc: %s: CCXs per CCD must be 1 or 2", c.Name)
	case c.CoresPerCCX <= 0 || c.CoresPerCCX > 4:
		return fmt.Errorf("soc: %s: cores per CCX must be in 1..4", c.Name)
	case c.MinMHz <= 0 || c.NominalMHz < c.MinMHz || c.BoostMHz < c.NominalMHz:
		return fmt.Errorf("soc: %s: need MinMHz <= NominalMHz <= BoostMHz", c.Name)
	}
	return nil
}

// CoresPerPackage returns the number of physical cores in each package.
func (c Config) CoresPerPackage() int {
	return c.CCDsPerPackage * c.CCXsPerCCD * c.CoresPerCCX
}

// TotalCores returns the number of physical cores in the system.
func (c Config) TotalCores() int { return c.Packages * c.CoresPerPackage() }

// TotalThreads returns the number of hardware threads in the system.
func (c Config) TotalThreads() int { return 2 * c.TotalCores() }

// Topology is the instantiated system structure. It is read-only: New
// hands every caller with an equal Config the same Topology.
type Topology struct {
	Config   Config
	Threads  []Thread
	Cores    []Core
	CCXs     []CCX
	CCDs     []CCD
	Packages []Package
}

// topologies holds the Topology built for each Config, under topologiesMu.
var (
	topologiesMu sync.Mutex
	topologies   = map[Config]*Topology{}
)

// New returns the topology of a configuration, built on the first call for
// an equal Config and shared, read-only, by every later one. It is safe
// for concurrent use, and panics on an invalid configuration.
func New(c Config) *Topology {
	topologiesMu.Lock()
	defer topologiesMu.Unlock()
	if t := topologies[c]; t != nil {
		return t
	}
	if err := c.Validate(); err != nil {
		panic(err)
	}
	t := &Topology{Config: c}
	nCores := c.TotalCores()
	t.Threads = make([]Thread, 2*nCores)
	t.Cores = make([]Core, nCores)

	coreIdx := 0
	for p := 0; p < c.Packages; p++ {
		pkg := Package{ID: PackageID(p), UMCs: c.UMCsPerPackage}
		for d := 0; d < c.CCDsPerPackage; d++ {
			ccd := CCD{ID: CCDID(len(t.CCDs)), Package: pkg.ID}
			for x := 0; x < c.CCXsPerCCD; x++ {
				ccx := CCX{ID: CCXID(len(t.CCXs)), CCD: ccd.ID}
				for k := 0; k < c.CoresPerCCX; k++ {
					core := Core{ID: CoreID(coreIdx), CCX: ccx.ID}
					ccx.Cores = append(ccx.Cores, core.ID)
					pkg.Cores = append(pkg.Cores, core.ID)
					t.Cores[coreIdx] = core
					coreIdx++
				}
				ccd.CCXs = append(ccd.CCXs, ccx.ID)
				t.CCXs = append(t.CCXs, ccx)
			}
			pkg.CCDs = append(pkg.CCDs, ccd.ID)
			t.CCDs = append(t.CCDs, ccd)
		}
		t.Packages = append(t.Packages, pkg)
	}

	// Linux logical CPU numbering: thread 0 of each core in package order,
	// then thread 1 of each core in package order.
	for c0 := 0; c0 < nCores; c0++ {
		t.Threads[c0] = Thread{ID: ThreadID(c0), Core: CoreID(c0), SMT: 0}
		t.Cores[c0].Threads[0] = ThreadID(c0)
	}
	for c1 := 0; c1 < nCores; c1++ {
		id := ThreadID(nCores + c1)
		t.Threads[id] = Thread{ID: id, Core: CoreID(c1), SMT: 1}
		t.Cores[c1].Threads[1] = id
	}
	topologies[c] = t
	return t
}

// NumThreads returns the number of hardware threads.
func (t *Topology) NumThreads() int { return len(t.Threads) }

// NumCores returns the number of physical cores.
func (t *Topology) NumCores() int { return len(t.Cores) }

// CoreOf returns the core a thread belongs to.
func (t *Topology) CoreOf(id ThreadID) *Core { return &t.Cores[t.Threads[id].Core] }

// CCXOf returns the CCX a core belongs to.
func (t *Topology) CCXOf(id CoreID) *CCX { return &t.CCXs[t.Cores[id].CCX] }

// CCDOf returns the CCD a CCX belongs to.
func (t *Topology) CCDOf(id CCXID) *CCD { return &t.CCDs[t.CCXs[id].CCD] }

// PackageOfCore returns the package a core belongs to.
func (t *Topology) PackageOfCore(id CoreID) PackageID {
	return t.CCDs[t.CCXs[t.Cores[id].CCX].CCD].Package
}

// Sibling returns the other hardware thread of the same core.
func (t *Topology) Sibling(id ThreadID) ThreadID {
	core := t.CoreOf(id)
	if core.Threads[0] == id {
		return core.Threads[1]
	}
	return core.Threads[0]
}

// ThreadsOfPackage lists threads in a package, first siblings before second.
func (t *Topology) ThreadsOfPackage(p PackageID) []ThreadID {
	var out []ThreadID
	for smt := 0; smt < 2; smt++ {
		for _, c := range t.Packages[p].Cores {
			out = append(out, t.Cores[c].Threads[smt])
		}
	}
	return out
}

// CoresOfCCX returns the cores of the given CCX.
func (t *Topology) CoresOfCCX(x CCXID) []CoreID { return t.CCXs[x].Cores }

// EnumerationOrder returns the logical CPU ordering used by the paper's
// Figure 7 sweep: thread 0 of each core of package 0, then package 1, then
// the SMT siblings, again grouped by package. (This is the identity ordering
// of ThreadIDs on this topology, made explicit for experiment code.)
func (t *Topology) EnumerationOrder() []ThreadID {
	out := make([]ThreadID, 0, len(t.Threads))
	for p := 0; p < len(t.Packages); p++ {
		for _, id := range t.ThreadsOfPackage(PackageID(p)) {
			if t.Threads[id].SMT == 0 {
				out = append(out, id)
			}
		}
	}
	for p := 0; p < len(t.Packages); p++ {
		for _, id := range t.ThreadsOfPackage(PackageID(p)) {
			if t.Threads[id].SMT == 1 {
				out = append(out, id)
			}
		}
	}
	return out
}

// SameCCX reports whether two cores share a core complex (and hence an L3).
func (t *Topology) SameCCX(a, b CoreID) bool { return t.Cores[a].CCX == t.Cores[b].CCX }
