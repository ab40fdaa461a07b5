//go:build !race

package core

import (
	"runtime"
	"testing"

	"repro/internal/kernel"
	"repro/internal/persona"
	"repro/internal/posix"
)

// selectReadyAllocs is what a select that finds descriptors ready
// allocates: its result and one array holding both ready lists.
const selectReadyAllocs = 2

// TestSelectReadyAllocs pins a select over N ready descriptors at a
// constant allocation count, whatever N is, under each persona: the scan
// counts the ready descriptors before it sizes their list, and gathers no
// wait queues for a call that will not block. Growing the lists by append
// costs ~log2(N) allocations and trips it.
func TestSelectReadyAllocs(t *testing.T) {
	for _, k := range []persona.Kind{persona.Android, persona.IOS} {
		inProc(t, k, func(th *kernel.Thread) {
			c := posix.New(k, th)
			fds := make([]int, 0, 100)
			for len(fds) < cap(fds) {
				fd, errno := c.Open("/dev/zero")
				if errno != kernel.OK {
					t.Errorf("%v: open /dev/zero: %v", k, errno)
					return
				}
				fds = append(fds, fd)
			}
			for _, n := range []int{1, 10, 100} {
				req := &kernel.SelectRequest{ReadFDs: fds[:n], WriteFDs: fds[:n]}
				got := testing.AllocsPerRun(50, func() {
					if res, errno := c.Select(req); errno != kernel.OK || res.N() != 2*n {
						t.Errorf("%v: select over %d ready fds: %v ready, errno %v", k, 2*n, res.N(), errno)
					}
				})
				if got != selectReadyAllocs {
					t.Errorf("%v: select over %d ready fds allocated %v objects, want %d", k, 2*n, got, selectReadyAllocs)
				}
				t.Logf("%v: select over %d ready fds: %v allocations", k, 2*n, got)
			}
		})
	}
}

// creatWriteAllocBound caps the allocations of a creat-truncate-write-
// close of an existing 10 KB file nothing else holds: the create's
// "exists" error, and the new descriptor's file and open-file slot. The
// bytes check in the test is the stronger pin: the truncate keeps the
// file's store, so the rewrite allocates none, where a truncate that
// drops it allocates 10 KB per round.
const creatWriteAllocBound = 3

// TestCreatTruncateWriteAllocs pins the lmbench "10KB create" round on an
// existing file under each persona: no store is allocated for the
// rewrite.
func TestCreatTruncateWriteAllocs(t *testing.T) {
	const size = 10 << 10
	payload := make([]byte, size)
	for _, k := range []persona.Kind{persona.Android, persona.IOS} {
		inProc(t, k, func(th *kernel.Thread) {
			c := posix.New(k, th)
			round := func() {
				fd, errno := c.Creat("/tmp/creat.tmp")
				if errno != kernel.OK {
					t.Errorf("%v: creat: %v", k, errno)
					return
				}
				if n, errno := c.Write(fd, payload); n != size || errno != kernel.OK {
					t.Errorf("%v: write: %d, %v", k, n, errno)
				}
				c.Close(fd)
			}
			round() // the file's first store
			got := testing.AllocsPerRun(50, round)
			if got > creatWriteAllocBound {
				t.Errorf("%v: creat-truncate-write allocated %v objects, bound %d", k, got, creatWriteAllocBound)
			}
			const runs = 50
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				round()
			}
			runtime.ReadMemStats(&after)
			per := (after.TotalAlloc - before.TotalAlloc) / runs
			if per >= size {
				t.Errorf("%v: creat-truncate-write of a %d-byte file allocated %d bytes per round, want no new store", k, size, per)
			}
			t.Logf("%v: creat-truncate-write: %v allocations, %d bytes (bound %d allocations)", k, got, per, creatWriteAllocBound)
		})
	}
}
