package faults

import (
	"sort"

	"bfvlsi/internal/butterfly"
	"bfvlsi/internal/isn"
	"bfvlsi/internal/packaging"
	"bfvlsi/internal/thompson"
)

// Scheme is a named module assignment of the wrapped butterfly - one
// packaging variant viewed as a set of failure domains.
type Scheme struct {
	Name string
	// ModuleOf maps wrapped node id -> module (see
	// packaging.RoutingModuleOf).
	ModuleOf   []int
	NumModules int
}

// PartitionScheme wraps a packaging partition into a Scheme. Pass the
// swap-butterfly the partition was built from, or nil for plain-butterfly
// partitions (NaiveRowPartition). Module ids are re-densified over the
// wrapped network: a module that owns only stage-n nodes (possible for
// the last nucleus segment) vanishes under the wrap and is not a failure
// domain of the simulated machine.
func PartitionScheme(name string, part *packaging.Partition, sb *isn.SwapButterfly) (Scheme, error) {
	moduleOf, err := packaging.RoutingModuleOf(part, sb)
	if err != nil {
		return Scheme{}, err
	}
	present := make(map[int]bool)
	for _, m := range moduleOf {
		present[m] = true
	}
	ids := make([]int, 0, len(present))
	for m := range present {
		ids = append(ids, m)
	}
	sort.Ints(ids)
	remap := make(map[int]int, len(ids))
	for dense, m := range ids {
		remap[m] = dense
	}
	dense := make([]int, len(moduleOf))
	for i, m := range moduleOf {
		dense[i] = remap[m]
	}
	return Scheme{Name: name, ModuleOf: dense, NumModules: len(ids)}, nil
}

// StandardSchemes builds the three packagings the paper compares, as
// failure-domain schemes for dimension n: the Section 2.3 row partition
// (variant a) and nucleus partition (variant b, Theorem 2.1) of the
// paper's group spec for n, and the naive consecutive-row baseline with
// the same 2^k1 rows per module.
func StandardSchemes(n int) ([]Scheme, error) {
	spec := thompson.SpecForDim(n)
	sb := isn.Transform(spec)
	k1 := spec.GroupWidth(1)
	row, err := PartitionScheme("row", packaging.RowPartition(sb), sb)
	if err != nil {
		return nil, err
	}
	nucleus, err := PartitionScheme("nucleus", packaging.NucleusPartition(sb), sb)
	if err != nil {
		return nil, err
	}
	naive, err := PartitionScheme("naive", packaging.NaiveRowPartition(butterfly.New(n), 1<<uint(k1)), nil)
	if err != nil {
		return nil, err
	}
	return []Scheme{row, nucleus, naive}, nil
}

// PickModules draws k distinct module ids uniformly from [0, numModules)
// by a seeded permutation - the draw the module-kill sweeps use per kill
// count.
func PickModules(numModules, k int, seed int64) []int {
	return newRand(seed).Perm(numModules)[:k]
}
