package lmbench

import (
	"sync"
	"testing"

	"repro/internal/core"
)

// TestPerRunHookIsolation is the regression test for the old package-level
// OnSystem global: two batteries running concurrently with different
// hooks must each see exactly their own systems. With a shared global,
// one run's hook would fire for the other run's systems (and -race would
// flag the concurrent writes).
func TestPerRunHookIsolation(t *testing.T) {
	var syscallTests []Test
	for _, tt := range AllTests() {
		if tt.Name == "null syscall" {
			syscallTests = append(syscallTests, tt)
		}
	}
	conf := Configurations()[0]

	var wg sync.WaitGroup
	counts := make([]int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := RunWith(conf, syscallTests, func(sys *core.System) {
				counts[i]++
			})
			if err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	for i, n := range counts {
		if n != 1 {
			t.Errorf("run %d: hook fired %d times, want exactly 1", i, n)
		}
	}
}

// TestParallelCellsMatchBatch pins the sharding granularity choice: a
// test run in its own single-test cell must measure exactly the latency
// it measures inside the full sequential battery — lmbench tests start
// from cold System state, so per-(config, test) cells are safe. (The
// passmark 3D tests fail this property, which is why passmark shards per
// configuration; see passmark's fig6.)
func TestParallelCellsMatchBatch(t *testing.T) {
	tests := AllTests()[:6]     // basic group + first syscalls: enough to cross groups
	conf := Configurations()[2] // cider-ios: the config with the most machinery
	batch, err := RunWith(conf, tests, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, tt := range tests {
		solo, err := RunWith(conf, []Test{tt}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if solo[0].Latency != batch[i].Latency || solo[0].Failed != batch[i].Failed {
			t.Errorf("%s: solo cell %v (failed=%v) != batch %v (failed=%v)",
				tt.Name, solo[0].Latency, solo[0].Failed, batch[i].Latency, batch[i].Failed)
		}
	}
}
