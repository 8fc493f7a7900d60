package soc

import (
	"testing"
	"testing/quick"
)

func TestEPYC7502x2Shape(t *testing.T) {
	top := New(EPYC7502x2())
	if got := top.NumCores(); got != 64 {
		t.Fatalf("cores = %d, want 64", got)
	}
	if got := top.NumThreads(); got != 128 {
		t.Fatalf("threads = %d, want 128", got)
	}
	if got := len(top.CCDs); got != 8 {
		t.Fatalf("CCDs = %d, want 8", got)
	}
	if got := len(top.CCXs); got != 16 {
		t.Fatalf("CCXs = %d, want 16", got)
	}
	if got := len(top.Packages); got != 2 {
		t.Fatalf("packages = %d, want 2", got)
	}
	for _, x := range top.CCXs {
		if len(x.Cores) != 4 {
			t.Fatalf("CCX %d has %d cores, want 4", x.ID, len(x.Cores))
		}
	}
}

func TestLinuxNumbering(t *testing.T) {
	top := New(EPYC7502x2())
	// Thread i (i<64) must be SMT0 of core i; thread 64+i must be SMT1 of core i.
	for i := 0; i < 64; i++ {
		th := top.Threads[i]
		if th.SMT != 0 || th.Core != CoreID(i) {
			t.Fatalf("thread %d: smt=%d core=%d", i, th.SMT, th.Core)
		}
		th2 := top.Threads[64+i]
		if th2.SMT != 1 || th2.Core != CoreID(i) {
			t.Fatalf("thread %d: smt=%d core=%d", 64+i, th2.SMT, th2.Core)
		}
	}
}

func TestSibling(t *testing.T) {
	top := New(EPYC7502x2())
	if s := top.Sibling(0); s != 64 {
		t.Fatalf("sibling of 0 = %d, want 64", s)
	}
	if s := top.Sibling(64); s != 0 {
		t.Fatalf("sibling of 64 = %d, want 0", s)
	}
	if s := top.Sibling(63); s != 127 {
		t.Fatalf("sibling of 63 = %d, want 127", s)
	}
}

func TestPackageAssignment(t *testing.T) {
	top := New(EPYC7502x2())
	// Cores 0..31 on package 0, 32..63 on package 1.
	for c := 0; c < 32; c++ {
		if p := top.PackageOfCore(CoreID(c)); p != 0 {
			t.Fatalf("core %d on package %d, want 0", c, p)
		}
	}
	for c := 32; c < 64; c++ {
		if p := top.PackageOfCore(CoreID(c)); p != 1 {
			t.Fatalf("core %d on package %d, want 1", c, p)
		}
	}
	// Threads: 0..31 and 64..95 → pkg0; 32..63 and 96..127 → pkg1.
	if p := top.PackageOfThread(70); p != 0 {
		t.Fatalf("thread 70 on package %d, want 0", p)
	}
	if p := top.PackageOfThread(100); p != 1 {
		t.Fatalf("thread 100 on package %d, want 1", p)
	}
}

func TestCCXGrouping(t *testing.T) {
	top := New(EPYC7502x2())
	// Cores 0-3 in CCX0, 4-7 in CCX1 (same CCD), 8-11 in CCX2...
	if !top.SameCCX(0, 3) {
		t.Fatal("cores 0 and 3 should share a CCX")
	}
	if top.SameCCX(3, 4) {
		t.Fatal("cores 3 and 4 should not share a CCX")
	}
	ccx0 := top.CCXOf(0)
	ccx1 := top.CCXOf(4)
	if top.CCDOf(ccx0.ID).ID != top.CCDOf(ccx1.ID).ID {
		t.Fatal("CCX0 and CCX1 should share CCD0")
	}
}

func TestEnumerationOrder(t *testing.T) {
	top := New(EPYC7502x2())
	order := top.EnumerationOrder()
	if len(order) != 128 {
		t.Fatalf("order length %d", len(order))
	}
	// On this topology the enumeration is the identity.
	for i, id := range order {
		if id != ThreadID(i) {
			t.Fatalf("order[%d] = %d", i, id)
		}
	}
}

func TestOnlineOffline(t *testing.T) {
	top := New(EPYC7502x2())
	if err := top.SetOnline(0, false); err == nil {
		t.Fatal("offlining cpu0 should fail")
	}
	if err := top.SetOnline(64, false); err != nil {
		t.Fatalf("offlining cpu64: %v", err)
	}
	if top.Online(64) {
		t.Fatal("cpu64 still online")
	}
	got := top.OnlineThreads()
	if len(got) != 127 {
		t.Fatalf("online threads = %d, want 127", len(got))
	}
	if err := top.SetOnline(64, true); err != nil {
		t.Fatalf("re-onlining: %v", err)
	}
	if len(top.OnlineThreads()) != 128 {
		t.Fatal("re-onlining did not restore count")
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Name: "no-packages", CCDsPerPackage: 1, CCXsPerCCD: 1, CoresPerCCX: 1, MinMHz: 1, NominalMHz: 2, BoostMHz: 3},
		{Name: "too-many-ccds", Packages: 1, CCDsPerPackage: 9, CCXsPerCCD: 1, CoresPerCCX: 1, MinMHz: 1, NominalMHz: 2, BoostMHz: 3},
		{Name: "bad-freq", Packages: 1, CCDsPerPackage: 1, CCXsPerCCD: 1, CoresPerCCX: 1, MinMHz: 5, NominalMHz: 2, BoostMHz: 3},
		{Name: "big-ccx", Packages: 1, CCDsPerPackage: 1, CCXsPerCCD: 1, CoresPerCCX: 9, MinMHz: 1, NominalMHz: 2, BoostMHz: 3},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %q validated but should not", c.Name)
		}
	}
	for _, c := range []Config{EPYC7502x2(), EPYC7742x2()} {
		if err := c.Validate(); err != nil {
			t.Errorf("preset %q failed validation: %v", c.Name, err)
		}
	}
}

func TestPresetSizes(t *testing.T) {
	if n := EPYC7742x2().TotalThreads(); n != 256 {
		t.Fatalf("7742x2 threads = %d, want 256", n)
	}
}

func TestThreadCoreBijection(t *testing.T) {
	// Property: every thread maps to a core that lists it back, for any
	// valid configuration drawn from a small space.
	f := func(pk, cd, cx, co uint8) bool {
		c := Config{
			Name:           "prop",
			Packages:       int(pk%3) + 1,
			CCDsPerPackage: int(cd%4) + 1,
			CCXsPerCCD:     int(cx%2) + 1,
			CoresPerCCX:    int(co%4) + 1,
			UMCsPerPackage: 2,
			TDPWatts:       100,
			MinMHz:         1500, NominalMHz: 2500, BoostMHz: 3000,
		}
		top := New(c)
		for _, th := range top.Threads {
			core := top.CoreOf(th.ID)
			if core.Threads[th.SMT] != th.ID {
				return false
			}
			if top.Sibling(top.Sibling(th.ID)) != th.ID {
				return false
			}
		}
		// Core membership in CCX lists is exact.
		seen := map[CoreID]bool{}
		for _, x := range top.CCXs {
			for _, cid := range x.Cores {
				if seen[cid] {
					return false
				}
				seen[cid] = true
			}
		}
		return len(seen) == top.NumCores()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestThreadsOfPackage(t *testing.T) {
	top := New(EPYC7502x2())
	p0 := top.ThreadsOfPackage(0)
	if len(p0) != 64 {
		t.Fatalf("package 0 threads = %d, want 64", len(p0))
	}
	// First 32 entries must be SMT0.
	for i := 0; i < 32; i++ {
		if top.Threads[p0[i]].SMT != 0 {
			t.Fatalf("entry %d is not SMT0", i)
		}
	}
	for i := 32; i < 64; i++ {
		if top.Threads[p0[i]].SMT != 1 {
			t.Fatalf("entry %d is not SMT1", i)
		}
	}
}
