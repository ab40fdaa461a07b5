package xnu

import (
	"testing"
	"time"

	"repro/internal/ducttape"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/prog"
	"repro/internal/sim"
	"repro/internal/vfs"
)

type harness struct {
	s   *sim.Sim
	k   *kernel.Kernel
	ipc *IPC
	ps  *Psynch
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	s := sim.New()
	k, err := kernel.New(s, kernel.Config{
		Profile: kernel.ProfileCider, Device: hw.Nexus7(),
		Root: vfs.New(), Registry: prog.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	k.InstallLinuxTable()
	k.RegisterBinFmt(&kernel.ELFLoader{})
	env := ducttape.NewEnv(k)
	ipc, err := InstallIPC(k, env)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := InstallPsynch(k, env)
	if err != nil {
		t.Fatal(err)
	}
	return &harness{s: s, k: k, ipc: ipc, ps: ps}
}

// runProcs starts one process per body and runs the simulation.
func (h *harness) runProcs(t *testing.T, bodies ...func(*kernel.Thread)) {
	t.Helper()
	fs := h.k.Root().(*vfs.FS)
	for i, body := range bodies {
		key := "xnu-proc-" + string(rune('a'+i))
		b := body
		h.k.Registry().MustRegister(key, func(c *prog.Call) uint64 {
			b(c.Ctx.(*kernel.Thread))
			return 0
		})
		bin, err := prog.StaticELF(key)
		if err != nil {
			t.Fatal(err)
		}
		path := "/bin/" + key
		if err := fs.WriteFile(path, bin); err != nil {
			t.Fatal(err)
		}
		if _, err := h.k.StartProcess(path, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestUnitsLinkCleanly(t *testing.T) {
	img, err := ducttape.Link(AllUnits())
	if err != nil {
		t.Fatal(err)
	}
	// The deliberate panic conflict must be remapped.
	found := false
	for _, r := range img.Remaps() {
		if r.Symbol == "panic" && r.NewName == "xnu_panic" {
			found = true
		}
	}
	if !found {
		t.Fatalf("panic remap missing: %+v", img.Remaps())
	}
	// No unresolved work (everything the foreign zone needs is shimmed).
	if len(img.Unresolved()) != 0 {
		t.Fatalf("unresolved: %v", img.Unresolved())
	}
}

func TestExtensionRegistration(t *testing.T) {
	h := newHarness(t)
	ipc, ok := FromKernel(h.k)
	if !ok || ipc != h.ipc {
		t.Fatal("IPC extension not registered")
	}
	ps, ok := PsynchFromKernel(h.k)
	if !ok || ps != h.ps {
		t.Fatal("psynch extension not registered")
	}
}

func TestPortAllocateSendReceive(t *testing.T) {
	h := newHarness(t)
	var got string
	var replyGot string
	h.runProcs(t, func(th *kernel.Thread) {
		ipc := h.ipc
		port, kr := ipc.PortAllocate(th)
		if kr != KernSuccess {
			t.Errorf("alloc: %v", kr)
			return
		}
		reply, kr := ipc.PortAllocate(th)
		if kr != KernSuccess {
			t.Errorf("alloc reply: %v", kr)
			return
		}
		cr, _ := ipc.MakeSendRight(th, reply)
		// Send to self (same space) with a reply right.
		kr = ipc.Send(th, port, &Message{ID: 100, Body: []byte("hello mach"), Reply: cr}, -1)
		if kr != KernSuccess {
			t.Errorf("send: %v", kr)
		}
		msg, kr := ipc.Receive(th, port, -1)
		if kr != KernSuccess {
			t.Errorf("recv: %v", kr)
			return
		}
		got = string(msg.Body)
		// Reply through the carried right.
		kr = ipc.Send(th, msg.ReplyName, &Message{ID: 101, Body: []byte("roger")}, -1)
		if kr != KernSuccess {
			t.Errorf("reply send: %v", kr)
		}
		rm, kr := ipc.Receive(th, reply, -1)
		if kr != KernSuccess {
			t.Errorf("reply recv: %v", kr)
			return
		}
		replyGot = string(rm.Body)
	})
	if got != "hello mach" || replyGot != "roger" {
		t.Fatalf("got %q / %q", got, replyGot)
	}
}

func TestCrossTaskMessaging(t *testing.T) {
	h := newHarness(t)
	// Server allocates a port and publishes it as the bootstrap port;
	// client sends through its bootstrap name.
	var received string
	ready := sim.NewWaitQueue("ready")
	serverUp := false
	h.runProcs(t,
		func(th *kernel.Thread) { // server
			port, _ := h.ipc.PortAllocate(th)
			r, _ := h.ipc.resolve(th, port)
			h.ipc.SetBootstrapPort(r.port)
			serverUp = true
			ready.WakeAll(th.Proc(), sim.WakeNormal)
			msg, kr := h.ipc.Receive(th, port, -1)
			if kr != KernSuccess {
				t.Errorf("server recv: %v", kr)
				return
			}
			received = string(msg.Body)
		},
		func(th *kernel.Thread) { // client
			for !serverUp {
				ready.Wait(th.Proc())
			}
			kr := h.ipc.Send(th, BootstrapName, &Message{ID: 7, Body: []byte("ping across tasks")}, -1)
			if kr != KernSuccess {
				t.Errorf("client send: %v", kr)
			}
		},
	)
	if received != "ping across tasks" {
		t.Fatalf("received %q", received)
	}
}

func TestReceiveBlocksUntilSend(t *testing.T) {
	h := newHarness(t)
	var recvAt time.Duration
	var port PortName
	allocated := sim.NewWaitQueue("alloc")
	ok := false
	h.runProcs(t,
		func(th *kernel.Thread) {
			port, _ = h.ipc.PortAllocate(th)
			r, _ := h.ipc.resolve(th, port)
			h.ipc.SetBootstrapPort(r.port)
			ok = true
			allocated.WakeAll(th.Proc(), sim.WakeNormal)
			h.ipc.Receive(th, port, -1)
			recvAt = th.Now()
		},
		func(th *kernel.Thread) {
			for !ok {
				allocated.Wait(th.Proc())
			}
			th.Charge(4 * time.Millisecond)
			h.ipc.Send(th, BootstrapName, &Message{Body: []byte("x")}, -1)
		},
	)
	if recvAt < 4*time.Millisecond {
		t.Fatalf("receive returned at %v, before send", recvAt)
	}
}

func TestReceiveTimeout(t *testing.T) {
	h := newHarness(t)
	var kr KernReturn
	h.runProcs(t, func(th *kernel.Thread) {
		port, _ := h.ipc.PortAllocate(th)
		_, kr = h.ipc.Receive(th, port, 2*time.Millisecond)
	})
	if kr != MachRcvTimedOut {
		t.Fatalf("kr = %#x, want MACH_RCV_TIMED_OUT", kr)
	}
}

func TestSendToInvalidName(t *testing.T) {
	h := newHarness(t)
	var kr KernReturn
	h.runProcs(t, func(th *kernel.Thread) {
		kr = h.ipc.Send(th, 0xdead, &Message{}, -1)
	})
	if kr != MachSendInvalidDest {
		t.Fatalf("kr = %#x, want MACH_SEND_INVALID_DEST", kr)
	}
}

func TestQueueLimitBlocksSender(t *testing.T) {
	h := newHarness(t)
	var timedOut KernReturn
	h.runProcs(t, func(th *kernel.Thread) {
		port, _ := h.ipc.PortAllocate(th)
		for i := 0; i < defaultQLimit; i++ {
			if kr := h.ipc.Send(th, port, &Message{ID: int32(i)}, 0); kr != KernSuccess {
				t.Errorf("send %d: %v", i, kr)
			}
		}
		// Queue full: zero-timeout send must time out.
		timedOut = h.ipc.Send(th, port, &Message{}, 0)
	})
	if timedOut != MachSendTimedOut {
		t.Fatalf("kr = %#x, want MACH_SEND_TIMED_OUT", timedOut)
	}
}

func TestPortDestroyWakesBlockedReceiver(t *testing.T) {
	h := newHarness(t)
	var kr KernReturn
	var port PortName
	started := sim.NewWaitQueue("started")
	up := false
	h.runProcs(t,
		func(th *kernel.Thread) {
			port, _ = h.ipc.PortAllocate(th)
			r, _ := h.ipc.resolve(th, port)
			h.ipc.SetBootstrapPort(r.port)
			up = true
			started.WakeAll(th.Proc(), sim.WakeNormal)
			_, kr = h.ipc.Receive(th, port, -1)
		},
		func(th *kernel.Thread) {
			for !up {
				started.Wait(th.Proc())
			}
			th.Charge(time.Millisecond)
			// Destroy via the receiver's own space is not reachable from
			// here; mark the port dead directly through the bootstrap
			// right's port (same kernel object).
			r, _ := h.ipc.resolve(th, BootstrapName)
			r.port.dead = true
			r.port.recvWait.WakeAll(th.Proc(), sim.WakeNormal)
		},
	)
	if kr != MachRcvPortDied {
		t.Fatalf("kr = %#x, want MACH_RCV_PORT_DIED", kr)
	}
}

func TestOOLMemoryZeroCopy(t *testing.T) {
	h := newHarness(t)
	var seen []byte
	got := sim.NewWaitQueue("got")
	up := false
	h.runProcs(t,
		func(th *kernel.Thread) { // receiver: maps the OOL pages
			port, _ := h.ipc.PortAllocate(th)
			r, _ := h.ipc.resolve(th, port)
			h.ipc.SetBootstrapPort(r.port)
			up = true
			got.WakeAll(th.Proc(), sim.WakeNormal)
			msg, kr := h.ipc.Receive(th, port, -1)
			if kr != KernSuccess {
				t.Errorf("recv: %v", kr)
				return
			}
			base, kr := h.ipc.MapOOL(th, msg.OOL[0], "ool")
			if kr != KernSuccess {
				t.Errorf("map: %v", kr)
				return
			}
			buf := make([]byte, 9)
			th.Task().Mem().ReadAt(base, buf)
			seen = buf
		},
		func(th *kernel.Thread) { // sender: shares a backing
			for !up {
				got.Wait(th.Proc())
			}
			backing := mem.NewBacking(mem.PageSize)
			copy(backing.Bytes(), "zero-copy")
			h.ipc.Send(th, BootstrapName, &Message{OOL: []*mem.Backing{backing}}, -1)
		},
	)
	if string(seen) != "zero-copy" {
		t.Fatalf("seen %q", seen)
	}
}

func TestPortSetReceivesFromAnyMember(t *testing.T) {
	h := newHarness(t)
	var ids []int32
	h.runProcs(t, func(th *kernel.Thread) {
		p1, _ := h.ipc.PortAllocate(th)
		p2, _ := h.ipc.PortAllocate(th)
		set := h.ipc.PortSetAllocate(th)
		if kr := h.ipc.PortSetAdd(th, set, p1); kr != KernSuccess {
			t.Errorf("add p1: %v", kr)
		}
		if kr := h.ipc.PortSetAdd(th, set, p2); kr != KernSuccess {
			t.Errorf("add p2: %v", kr)
		}
		h.ipc.Send(th, p2, &Message{ID: 22}, -1)
		h.ipc.Send(th, p1, &Message{ID: 11}, -1)
		for i := 0; i < 2; i++ {
			msg, kr := h.ipc.ReceiveSet(th, set, -1)
			if kr != KernSuccess {
				t.Errorf("recv set: %v", kr)
				return
			}
			ids = append(ids, msg.ID)
		}
		if _, kr := h.ipc.ReceiveSet(th, set, 0); kr != MachRcvTimedOut {
			t.Errorf("empty set poll: %v", kr)
		}
	})
	if len(ids) != 2 {
		t.Fatalf("ids = %v", ids)
	}
}

func TestSendRightCoalescing(t *testing.T) {
	h := newHarness(t)
	h.runProcs(t, func(th *kernel.Thread) {
		port, _ := h.ipc.PortAllocate(th)
		s1, kr := h.ipc.InsertSendRight(th, port)
		if kr != KernSuccess {
			t.Errorf("insert: %v", kr)
		}
		s2, _ := h.ipc.InsertSendRight(th, port)
		if s1 != s2 {
			t.Errorf("send rights not coalesced: %v vs %v", s1, s2)
		}
		// Two refs: two deallocates needed.
		if kr := h.ipc.PortDeallocate(th, s1); kr != KernSuccess {
			t.Errorf("dealloc 1: %v", kr)
		}
		if kr := h.ipc.PortDeallocate(th, s1); kr != KernSuccess {
			t.Errorf("dealloc 2: %v", kr)
		}
		if kr := h.ipc.PortDeallocate(th, s1); kr != KernInvalidName {
			t.Errorf("dealloc 3 = %v, want KERN_INVALID_NAME", kr)
		}
	})
}

// scanSendName is the name-table scan coalescing used before the send
// index: the name holding a send right to p, if any.
func scanSendName(s *Space, p *Port) (PortName, bool) {
	for n, r := range s.names {
		if r.port == p && r.typ == RightSend {
			return n, true
		}
	}
	return PortNull, false
}

// TestSendRightIndex checks that coalescing through the send index
// returns the name a scan of the table finds: for the bootstrap port
// bound at space creation and by SetBootstrapPort, for a fresh port,
// after the right is deallocated and inserted again, and after
// BootstrapName is freed and rebound to another port.
func TestSendRightIndex(t *testing.T) {
	h := newHarness(t)
	var boot *Port
	ready := sim.NewWaitQueue("ready")
	insert := func(th *kernel.Thread, p *Port) PortName {
		t.Helper()
		s := h.ipc.SpaceFor(th.Task())
		n := s.insert(p, RightSend)
		if want, ok := scanSendName(s, p); !ok || n != want {
			t.Errorf("insert = 0x%x, scan finds 0x%x (%v)", uint32(n), uint32(want), ok)
		}
		return n
	}
	h.runProcs(t,
		func(th *kernel.Thread) {
			name, _ := h.ipc.PortAllocate(th)
			r, _ := h.ipc.resolve(th, name)
			boot = r.port
			// This space exists already: SetBootstrapPort binds it.
			h.ipc.SetBootstrapPort(boot)
			ready.WakeAll(th.Proc(), sim.WakeNormal)
			if n := insert(th, boot); n != BootstrapName {
				t.Errorf("bootstrap send right coalesced under 0x%x, want BootstrapName", uint32(n))
			}
			p, _ := h.ipc.PortAllocate(th)
			pr, _ := h.ipc.resolve(th, p)
			first := insert(th, pr.port)
			if again := insert(th, pr.port); again != first {
				t.Errorf("second insert 0x%x, first 0x%x", uint32(again), uint32(first))
			}
			for i := 0; i < 2; i++ {
				if kr := h.ipc.PortDeallocate(th, first); kr != KernSuccess {
					t.Errorf("dealloc: %v", kr)
				}
			}
			second := insert(th, pr.port)
			if second == first {
				t.Errorf("re-insert after dealloc reused 0x%x", uint32(first))
			}
			if again := insert(th, pr.port); again != second {
				t.Errorf("re-insert coalesced under 0x%x, want 0x%x", uint32(again), uint32(second))
			}
		},
		func(th *kernel.Thread) {
			for boot == nil {
				ready.Wait(th.Proc())
			}
			// A space made after SetBootstrapPort binds it at creation.
			if _, ok := h.ipc.spaces[th.Task()]; ok {
				t.Fatal("the second task has a port space already")
			}
			if n := insert(th, boot); n != BootstrapName {
				t.Errorf("new space: bootstrap send right under 0x%x, want BootstrapName", uint32(n))
			}
			if kr := h.ipc.PortDeallocate(th, BootstrapName); kr != KernSuccess {
				t.Errorf("dealloc bootstrap: %v", kr)
			}
			if kr := h.ipc.PortDeallocate(th, BootstrapName); kr != KernSuccess {
				t.Errorf("dealloc bootstrap: %v", kr)
			}
			// A new bootstrap port rebinds the freed name to another
			// port: the index's stale entry for the old one must not
			// coalesce into it.
			q, _ := h.ipc.PortAllocate(th)
			qr, _ := h.ipc.resolve(th, q)
			h.ipc.SetBootstrapPort(qr.port)
			if n := insert(th, boot); n == BootstrapName {
				t.Error("the old bootstrap port coalesced into the rebound BootstrapName")
			}
		},
	)
}

func TestPsynchMutex(t *testing.T) {
	h := newHarness(t)
	const uaddr = 0x1000
	inside, maxInside := 0, 0
	body := func(th *kernel.Thread) {
		for i := 0; i < 5; i++ {
			if kr := h.ps.MutexWait(th, uaddr); kr != KernSuccess {
				t.Errorf("mutexwait: %v", kr)
			}
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			th.Charge(time.Microsecond)
			inside--
			h.ps.MutexDrop(th, uaddr)
		}
	}
	h.runProcs(t, body, body)
	if maxInside != 1 {
		t.Fatalf("maxInside = %d", maxInside)
	}
}

func TestPsynchMutexDropWithoutHold(t *testing.T) {
	h := newHarness(t)
	var kr KernReturn
	h.runProcs(t, func(th *kernel.Thread) {
		kr = h.ps.MutexDrop(th, 0x2000)
	})
	if kr != KernInvalidRight {
		t.Fatalf("kr = %v, want KERN_INVALID_RIGHT", kr)
	}
}

func TestPsynchCondvarSignal(t *testing.T) {
	h := newHarness(t)
	const mu, cv = 0x10, 0x20
	sequence := []string{}
	h.runProcs(t,
		func(th *kernel.Thread) { // waiter
			h.ps.MutexWait(th, mu)
			sequence = append(sequence, "wait")
			timedOut, kr := h.ps.CVWait(th, cv, mu, 0)
			if kr != KernSuccess || timedOut {
				t.Errorf("cvwait: %v timedOut=%v", kr, timedOut)
			}
			sequence = append(sequence, "woken")
			h.ps.MutexDrop(th, mu)
		},
		func(th *kernel.Thread) { // signaler
			th.Charge(2 * time.Millisecond)
			h.ps.MutexWait(th, mu)
			sequence = append(sequence, "signal")
			h.ps.CVSignal(th, cv)
			h.ps.MutexDrop(th, mu)
		},
	)
	want := []string{"wait", "signal", "woken"}
	if len(sequence) != 3 || sequence[0] != want[0] || sequence[1] != want[1] || sequence[2] != want[2] {
		t.Fatalf("sequence = %v, want %v", sequence, want)
	}
}

func TestPsynchCondvarTimeout(t *testing.T) {
	h := newHarness(t)
	var timedOut bool
	h.runProcs(t, func(th *kernel.Thread) {
		h.ps.MutexWait(th, 1)
		timedOut, _ = h.ps.CVWait(th, 2, 1, 3*time.Millisecond)
		h.ps.MutexDrop(th, 1)
	})
	if !timedOut {
		t.Fatal("expected cv timeout")
	}
}

func TestPsynchCondvarBroadcast(t *testing.T) {
	h := newHarness(t)
	const mu, cv = 0x30, 0x40
	woken := 0
	waiter := func(th *kernel.Thread) {
		h.ps.MutexWait(th, mu)
		h.ps.CVWait(th, cv, mu, 0)
		woken++
		h.ps.MutexDrop(th, mu)
	}
	h.runProcs(t, waiter, waiter, waiter,
		func(th *kernel.Thread) {
			th.Charge(2 * time.Millisecond)
			if n := h.ps.CVBroadcast(th, cv); n != 3 {
				t.Errorf("broadcast woke %d, want 3", n)
			}
		},
	)
	if woken != 3 {
		t.Fatalf("woken = %d", woken)
	}
}

func TestPsynchSemaphores(t *testing.T) {
	h := newHarness(t)
	var order []string
	h.runProcs(t,
		func(th *kernel.Thread) {
			h.ps.SemInit(th, 0x99, 0)
			if kr := h.ps.SemWait(th, 0x99); kr != KernSuccess {
				t.Errorf("semwait: %v", kr)
			}
			order = append(order, "acquired")
		},
		func(th *kernel.Thread) {
			th.Charge(time.Millisecond)
			order = append(order, "signaling")
			if kr := h.ps.SemSignal(th, 0x99); kr != KernSuccess {
				t.Errorf("semsignal: %v", kr)
			}
		},
	)
	if len(order) != 2 || order[0] != "signaling" || order[1] != "acquired" {
		t.Fatalf("order = %v", order)
	}
	h2 := newHarness(t)
	var kr KernReturn
	h2.runProcs(t, func(th *kernel.Thread) {
		kr = h2.ps.SemWait(th, 0xABC)
	})
	if kr != KernInvalidName {
		t.Fatalf("wait on missing sem = %v", kr)
	}
}

func TestIPCStats(t *testing.T) {
	h := newHarness(t)
	h.runProcs(t, func(th *kernel.Thread) {
		port, _ := h.ipc.PortAllocate(th)
		h.ipc.Send(th, port, &Message{Body: []byte("x")}, -1)
		h.ipc.Receive(th, port, -1)
	})
	sent, recvd := h.ipc.Stats()
	if sent != 1 || recvd != 1 {
		t.Fatalf("stats = %d/%d", sent, recvd)
	}
}

func TestDeadNameNotification(t *testing.T) {
	h := newHarness(t)
	var got *Message
	h.runProcs(t, func(th *kernel.Thread) {
		watched, _ := h.ipc.PortAllocate(th)
		notify, _ := h.ipc.PortAllocate(th)
		if kr := h.ipc.RequestDeadNameNotification(th, watched, notify); kr != KernSuccess {
			t.Errorf("request: %v", kr)
			return
		}
		if kr := h.ipc.PortDestroy(th, watched); kr != KernSuccess {
			t.Errorf("destroy: %v", kr)
			return
		}
		msg, kr := h.ipc.Receive(th, notify, 0)
		if kr != KernSuccess {
			t.Errorf("no notification: %v", kr)
			return
		}
		got = msg
	})
	if got == nil || got.ID != MsgDeadNameNotification {
		t.Fatalf("msg = %+v, want dead-name notification", got)
	}
}

func TestDeadNameNotificationRequiresReceiveRight(t *testing.T) {
	h := newHarness(t)
	var kr KernReturn
	h.runProcs(t, func(th *kernel.Thread) {
		watched, _ := h.ipc.PortAllocate(th)
		send, _ := h.ipc.InsertSendRight(th, watched)
		kr = h.ipc.RequestDeadNameNotification(th, watched, send)
	})
	if kr != KernInvalidRight {
		t.Fatalf("kr = %v, want KERN_INVALID_RIGHT", kr)
	}
}
