// Package iokit is the duct-taped I/O Kit subsystem (Section 5.1): Apple's
// C++ driver framework, compiled into the domestic kernel so iOS apps and
// libraries can discover and use Android hardware exactly as they would
// Apple hardware.
//
// The real Cider adds a C++ runtime to the Linux kernel and compiles the
// XNU iokit/ sources directly (minus hardware-facing pieces like
// IODMAController); this simulation reproduces the framework's object
// model — the registry, IOService matching, device/driver class instances
// — and the Linux bridge: a hook on the kernel's device_add path creates an
// I/O Kit registry entry for every Linux device, and per-device driver
// classes (e.g. AppleM2CLCD wrapping the Nexus 7 framebuffer) are matched
// to those entries so user space can find them via Mach IPC.
package iokit

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/ducttape"
	"repro/internal/kernel"
)

// ExtensionName keys the registry instance in the kernel extension table.
const ExtensionName = "iokit"

// RegistryEntry is one node in the I/O Kit registry plane.
type RegistryEntry struct {
	// ID is the registry entry id.
	ID uint64
	// Class is the entry's C++ class name (e.g. "IOService",
	// "AppleM2CLCD").
	Class string
	// Name is the instance name.
	Name string
	// Properties is the entry's property table (OSDictionary).
	Properties map[string]string
	// Provider is the parent entry in the service plane.
	Provider *RegistryEntry
	// driver is the matched driver instance, if any.
	driver Driver
	// linuxDev is the bridged Linux device, if this entry represents one.
	linuxDev kernel.Device
}

// Driver is a driver class instance: the C++ object wrapping a Linux
// device driver (Section 5.1's AppleM2CLCD example).
type Driver interface {
	// ClassName is the C++ class ("AppleM2CLCD").
	ClassName() string
	// Matches reports whether this driver drives the given device class
	// instance (IOService::probe score, reduced to a predicate).
	Matches(entry *RegistryEntry) bool
	// Start attaches the driver (IOService::start).
	Start(entry *RegistryEntry) error
	// Call handles a user-space method invocation (IOConnectCallMethod).
	Call(t *kernel.Thread, selector uint32, args []uint64) ([]uint64, error)
}

// Registry is the duct-taped I/O Kit instance in the kernel.
type Registry struct {
	env     *ducttape.Env
	k       *kernel.Kernel
	nextID  uint64
	root    *RegistryEntry
	entries map[uint64]*RegistryEntry
	// pendingDrivers are registered driver classes awaiting a match.
	pendingDrivers []Driver
	// matchCost models IOService matching work.
	matchCost time.Duration
	callCost  time.Duration
}

// Install duct-tapes I/O Kit into the kernel: validates the unit graph,
// hooks the Linux device-add path, and returns the registry.
func Install(k *kernel.Kernel, env *ducttape.Env) (*Registry, error) {
	if err := linkUnits(); err != nil {
		return nil, err
	}
	cpu := k.Device().CPU
	r := &Registry{
		env:       env,
		k:         k,
		nextID:    1,
		entries:   make(map[uint64]*RegistryEntry),
		matchCost: cpu.Cycles(6500),
		callCost:  cpu.Cycles(2600),
	}
	r.root = r.newEntry("IORegistryEntry", "Root", nil)
	r.root.Properties["IOKitBuildVersion"] = "xnu-2050.18.24 (ducttaped)"
	k.SetExtension(ExtensionName, r)

	// "Using a small hook in the Linux device_add function, Cider creates
	// a Linux device node I/O Kit registry entry (a device class instance)
	// for every registered Linux device."
	k.OnDeviceAdd(func(dev kernel.Device) {
		entry := r.newEntry("IOService", dev.DevName(), r.root)
		entry.Properties["LinuxDeviceNode"] = "/dev/" + dev.DevName()
		entry.linuxDev = dev
		r.match(entry)
	})
	return r, nil
}

// FromKernel fetches the installed I/O Kit registry.
func FromKernel(k *kernel.Kernel) (*Registry, bool) {
	v, ok := k.Extension(ExtensionName)
	if !ok {
		return nil, false
	}
	r, ok := v.(*Registry)
	return r, ok
}

func (r *Registry) newEntry(class, name string, provider *RegistryEntry) *RegistryEntry {
	e := &RegistryEntry{
		ID:         r.nextID,
		Class:      class,
		Name:       name,
		Properties: make(map[string]string),
		Provider:   provider,
	}
	r.nextID++
	r.entries[e.ID] = e
	return e
}

// RegisterDriver adds a driver class instance and matches it against
// existing device entries — the flow of Section 5.1: "the class is
// instantiated and registered as a driver class instance with I/O Kit
// through a small interface function called on Linux kernel boot. The duct
// taped I/O Kit code matches the C++ driver class instance with the Linux
// device node."
func (r *Registry) RegisterDriver(d Driver) error {
	r.pendingDrivers = append(r.pendingDrivers, d)
	for _, e := range r.sortedEntries() {
		if e.driver == nil && d.Matches(e) {
			if err := d.Start(e); err != nil {
				return err
			}
			e.driver = d
			e.Properties["IOClass"] = d.ClassName()
		}
	}
	return nil
}

// match tries every pending driver against a new entry.
func (r *Registry) match(e *RegistryEntry) {
	for _, d := range r.pendingDrivers {
		if e.driver == nil && d.Matches(e) {
			if err := d.Start(e); err != nil {
				continue
			}
			e.driver = d
			e.Properties["IOClass"] = d.ClassName()
			return
		}
	}
}

func (r *Registry) sortedEntries() []*RegistryEntry {
	out := make([]*RegistryEntry, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ServiceMatching finds registry entries by class name — the kernel half
// of IOServiceGetMatchingServices, which iOS user space reaches over Mach
// IPC.
func (r *Registry) ServiceMatching(t *kernel.Thread, class string) []*RegistryEntry {
	t.Charge(r.matchCost)
	var out []*RegistryEntry
	for _, e := range r.sortedEntries() {
		if e.Class == class || (e.driver != nil && e.driver.ClassName() == class) {
			out = append(out, e)
		}
	}
	return out
}

// ServiceNamed finds a registry entry by instance name.
func (r *Registry) ServiceNamed(t *kernel.Thread, name string) (*RegistryEntry, bool) {
	t.Charge(r.matchCost)
	for _, e := range r.sortedEntries() {
		if e.Name == name {
			return e, true
		}
	}
	return nil, false
}

// Call invokes a matched driver method from user space
// (IOConnectCallMethod over Mach IPC).
func (r *Registry) Call(t *kernel.Thread, entryID uint64, selector uint32, args []uint64) ([]uint64, error) {
	t.Charge(r.callCost)
	e, ok := r.entries[entryID]
	if !ok {
		return nil, fmt.Errorf("iokit: no registry entry %d", entryID)
	}
	if e.driver == nil {
		return nil, fmt.Errorf("iokit: entry %s has no matched driver", e.Name)
	}
	return e.driver.Call(t, selector, args)
}

// Entries returns the number of registry entries.
func (r *Registry) Entries() int { return len(r.entries) }

// linkUnits validates Units once per process: the graph is a package
// constant, so every boot would rebuild and discard the same image. A bad
// graph still fails every Install.
var linkUnits = sync.OnceValue(func() error {
	_, err := ducttape.Link(Units())
	return err
})

// Units declares the duct-tape compilation-unit graph for the I/O Kit
// sources: XNU's iokit/ tree (minus the hardware-facing controllers the
// paper notes were unnecessary) plus the C++ runtime shims Cider adds to
// the Linux kernel.
func Units() []ducttape.Unit {
	return []ducttape.Unit{
		{
			Name: "linux/drivers/base/core.c", Zone: ducttape.Domestic,
			Defines: []string{"device_add", "device_del", "dev_set_name"},
		},
		{
			Name: "linux/mm/slab_iokit_view.c", Zone: ducttape.Domestic,
			Defines: []string{"kmalloc_iokit", "kfree_iokit"},
		},
		{
			// "Cider added a basic C++ runtime to the Linux kernel based
			// on Android's Bionic."
			Name: "cider/ducttape/cxx_runtime.c", Zone: ducttape.Tape,
			Defines:    []string{"__cxa_pure_virtual", "operator_new", "operator_delete", "__cxa_guard_acquire"},
			References: []string{"kmalloc_iokit", "kfree_iokit"},
		},
		{
			Name: "cider/ducttape/iokit_device_hook.c", Zone: ducttape.Tape,
			Defines:    []string{"cider_device_add_hook", "iokit_publish_linux_device"},
			References: []string{"device_add", "dev_set_name", "IORegistryEntry_init", "IOService_publish"},
		},
		{
			Name: "xnu/iokit/Kernel/IORegistryEntry.cpp", Zone: ducttape.Foreign,
			Defines:    []string{"IORegistryEntry_init", "IORegistryEntry_setProperty", "IORegistryEntry_getProperty"},
			References: []string{"operator_new", "operator_delete", "__cxa_guard_acquire"},
		},
		{
			Name: "xnu/iokit/Kernel/IOService.cpp", Zone: ducttape.Foreign,
			Defines:    []string{"IOService_publish", "IOService_probe", "IOService_start", "IOService_matching"},
			References: []string{"IORegistryEntry_init", "IORegistryEntry_setProperty", "operator_new", "__cxa_pure_virtual"},
		},
		{
			Name: "xnu/iokit/Kernel/IOUserClient.cpp", Zone: ducttape.Foreign,
			Defines:    []string{"IOUserClient_externalMethod", "is_io_service_get_matching_services"},
			References: []string{"IOService_matching", "IOService_probe", "operator_new"},
		},
	}
}
