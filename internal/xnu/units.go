package xnu

import (
	"sync"

	"repro/internal/ducttape"
)

// linkAllUnits validates AllUnits once per process: the graph is a
// package constant, so every boot would rebuild and discard the same
// image. A bad graph still fails every InstallIPC and InstallPsynch.
var linkAllUnits = sync.OnceValue(func() error {
	_, err := ducttape.Link(AllUnits())
	return err
})

// AllUnits declares the compilation-unit symbol graph of the duct-taped
// foreign subsystems: which XNU source files are compiled in unmodified,
// which symbols they define and consume, and which duct tape shims satisfy
// their externals. InstallIPC/InstallPsynch validate this graph with
// ducttape.Link (once per process, see linkAllUnits), so a zone violation
// (foreign code reaching directly into Linux internals, or vice versa)
// fails kernel assembly.
//
// The file names mirror the real trees: XNU v2050.18.24's osfmk/ipc and
// bsd/kern, and the Linux 3.x sources of the Nexus 7's Android 4.2 kernel.
func AllUnits() []ducttape.Unit {
	return []ducttape.Unit{
		// ---- Domestic zone: the Linux kernel APIs the shims sit on.
		{
			Name: "linux/kernel/locking/mutex.c", Zone: ducttape.Domestic,
			Defines: []string{"mutex_lock", "mutex_unlock", "mutex_trylock"},
		},
		{
			Name: "linux/mm/slab.c", Zone: ducttape.Domestic,
			Defines: []string{"kmalloc", "kfree"},
		},
		{
			Name: "linux/kernel/sched/wait.c", Zone: ducttape.Domestic,
			Defines: []string{"prepare_to_wait", "finish_wait", "wake_up", "wake_up_all", "schedule"},
		},
		{
			Name: "linux/kernel/fork.c", Zone: ducttape.Domestic,
			Defines:    []string{"get_current", "linux_task_struct"},
			References: []string{"kmalloc"},
		},
		{
			Name: "linux/kernel/panic.c", Zone: ducttape.Domestic,
			Defines: []string{"panic", "printk"},
		},

		// ---- Duct tape zone: the adaptation shims (internal/ducttape's
		// Env at runtime), translating XNU kernel APIs onto Linux ones.
		{
			Name: "cider/ducttape/lck_shims.c", Zone: ducttape.Tape,
			Defines:    []string{"lck_mtx_alloc_init", "lck_mtx_lock", "lck_mtx_unlock", "lck_mtx_try_lock"},
			References: []string{"mutex_lock", "mutex_unlock", "mutex_trylock"},
		},
		{
			Name: "cider/ducttape/mem_shims.c", Zone: ducttape.Tape,
			Defines:    []string{"kalloc", "kfree_xnu", "zalloc", "zinit"},
			References: []string{"kmalloc", "kfree"},
		},
		{
			Name: "cider/ducttape/sched_shims.c", Zone: ducttape.Tape,
			Defines:    []string{"assert_wait", "thread_block", "thread_wakeup", "thread_wakeup_one", "semaphore_create_shim"},
			References: []string{"prepare_to_wait", "finish_wait", "wake_up", "wake_up_all", "schedule"},
		},
		{
			Name: "cider/ducttape/task_shims.c", Zone: ducttape.Tape,
			Defines:    []string{"current_task", "task_reference", "task_deallocate"},
			References: []string{"get_current", "linux_task_struct"},
		},
		{
			Name: "cider/ducttape/queue_shims.c", Zone: ducttape.Tape,
			// XNU's recursive queuing structures are disallowed in Linux;
			// this shim provides the flat rewrite (Section 4.2).
			Defines: []string{"queue_enter", "dequeue_head", "queue_empty", "queue_remove"},
		},

		// ---- Foreign zone: unmodified XNU sources.
		{
			Name: "xnu/osfmk/ipc/ipc_port.c", Zone: ducttape.Foreign,
			Defines: []string{"ipc_port_alloc", "ipc_port_destroy", "ipc_port_make_send", "ipc_port_release_send"},
			References: []string{
				"lck_mtx_alloc_init", "lck_mtx_lock", "lck_mtx_unlock",
				"kalloc", "kfree_xnu", "queue_enter", "dequeue_head",
				"panic", // resolves to the remapped xnu_panic
			},
		},
		{
			Name: "xnu/osfmk/ipc/ipc_space.c", Zone: ducttape.Foreign,
			Defines:    []string{"ipc_space_create", "ipc_entry_lookup", "ipc_entry_alloc"},
			References: []string{"kalloc", "kfree_xnu", "lck_mtx_lock", "lck_mtx_unlock", "current_task"},
		},
		{
			Name: "xnu/osfmk/ipc/ipc_mqueue.c", Zone: ducttape.Foreign,
			Defines: []string{"ipc_mqueue_send", "ipc_mqueue_receive", "ipc_mqueue_post"},
			References: []string{
				"assert_wait", "thread_block", "thread_wakeup", "thread_wakeup_one",
				"queue_enter", "dequeue_head", "queue_empty",
			},
		},
		{
			Name: "xnu/osfmk/ipc/ipc_kmsg.c", Zone: ducttape.Foreign,
			Defines:    []string{"ipc_kmsg_alloc", "ipc_kmsg_copyin", "ipc_kmsg_copyout"},
			References: []string{"kalloc", "kfree_xnu", "ipc_entry_lookup", "ipc_port_make_send"},
		},
		{
			Name: "xnu/osfmk/ipc/mach_msg.c", Zone: ducttape.Foreign,
			Defines:    []string{"mach_msg_trap", "mach_msg_overwrite_trap"},
			References: []string{"ipc_mqueue_send", "ipc_mqueue_receive", "ipc_kmsg_copyin", "ipc_kmsg_copyout", "current_task"},
		},
		{
			// XNU's own panic/logging symbols collide with Linux's; the
			// linker auto-remaps them (panic -> xnu_panic), demonstrating
			// duct tape step 3 ("conflicts are remapped to unique
			// symbols"). Foreign references to panic keep working.
			Name: "xnu/osfmk/kern/debug.c", Zone: ducttape.Foreign,
			Defines: []string{"panic", "kprintf"},
		},
		{
			Name: "xnu/bsd/kern/pthread_support.c", Zone: ducttape.Foreign,
			Defines: []string{"psynch_mutexwait", "psynch_mutexdrop", "psynch_cvwait", "psynch_cvsignal", "psynch_cvbroad"},
			References: []string{
				"assert_wait", "thread_block", "thread_wakeup", "thread_wakeup_one",
				"kalloc", "kfree_xnu", "lck_mtx_lock", "lck_mtx_unlock", "current_task",
			},
		},
		{
			Name: "xnu/osfmk/kern/sync_sema.c", Zone: ducttape.Foreign,
			Defines:    []string{"semaphore_create", "semaphore_wait", "semaphore_signal", "semaphore_timedwait"},
			References: []string{"semaphore_create_shim", "assert_wait", "thread_block", "thread_wakeup_one", "kalloc"},
		},
	}
}
