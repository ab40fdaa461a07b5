package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/ducttape"
	"repro/internal/iokit"
	"repro/internal/ipa"
	"repro/internal/macho"
	"repro/internal/prog"
	"repro/internal/xnu"
)

// runMacho inspects a Mach-O image, the otool/jtool of the simulated
// ecosystem, or with -sample writes a sample iOS app binary to play with.
func runMacho(args []string, stdout io.Writer) error {
	fs := newFlags("macho")
	sample := fs.Bool("sample", false, "write a sample iOS app binary instead of inspecting")
	if err := parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("%w: cider macho [-sample] <file>", errUsage)
	}
	path := fs.Arg(0)

	if *sample {
		bin, err := prog.MachOExecutable("com.example.sample", []string{
			"/usr/lib/libSystem.B.dylib",
			"/System/Library/Frameworks/UIKit.framework/UIKit",
		}, []string{"_IOSurfaceCreate", "_glDrawArrays"})
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, bin, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote sample Mach-O executable to %s (%d bytes)\n", path, len(bin))
		return nil
	}

	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	f, err := macho.Parse(data)
	if err != nil {
		return err
	}
	typ := "?"
	switch f.FileType {
	case macho.TypeExecute:
		typ = "MH_EXECUTE"
	case macho.TypeDylib:
		typ = "MH_DYLIB"
	}
	fmt.Fprintf(stdout, "Mach-O 32-bit  cputype %d (ARM) subtype %d  filetype %s  flags %#x\n",
		f.CPUType, f.CPUSubtype, typ, f.Flags)
	if f.DylibID != "" {
		fmt.Fprintf(stdout, "LC_ID_DYLIB        %s\n", f.DylibID)
	}
	if f.Dylinker != "" {
		fmt.Fprintf(stdout, "LC_LOAD_DYLINKER   %s\n", f.Dylinker)
	}
	if f.HasEntry {
		fmt.Fprintf(stdout, "LC_MAIN            entryoff=%#x\n", f.EntryOffset)
	}
	if f.Encryption != nil {
		state := "decrypted"
		if f.Encryption.CryptID != 0 {
			state = "ENCRYPTED"
		}
		fmt.Fprintf(stdout, "LC_ENCRYPTION_INFO cryptoff=%#x cryptsize=%#x cryptid=%d (%s)\n",
			f.Encryption.CryptOff, f.Encryption.CryptSize, f.Encryption.CryptID, state)
	}
	for _, seg := range f.Segments {
		fmt.Fprintf(stdout, "LC_SEGMENT         %-16s vmaddr=%#x vmsize=%#x filesize=%#x prot=%d\n",
			seg.Name, seg.VMAddr, seg.VMSize, len(seg.Data), seg.Prot)
		for _, sec := range seg.Sections {
			fmt.Fprintf(stdout, "    section        %-16s addr=%#x size=%#x\n", sec.Name, sec.Addr, sec.Size)
		}
	}
	for _, d := range f.Dylibs {
		fmt.Fprintf(stdout, "LC_LOAD_DYLIB      %s\n", d)
	}
	if len(f.Symbols) > 0 {
		fmt.Fprintf(stdout, "symbol table (%d entries):\n", len(f.Symbols))
		for _, s := range f.Symbols {
			kind := "local "
			if s.Exported() {
				kind = "export"
			} else if s.Undefined() {
				kind = "undef "
			}
			fmt.Fprintf(stdout, "    %s  %#010x  %s\n", kind, s.Value, s.Name)
		}
	}
	return nil
}

const ipaUsage = `cider ipa build   -name App -bundle com.x.app -key 0xSEED <out.ipa>
  cider ipa decrypt -key 0xSEED <in.ipa> <out.ipa>
  cider ipa info    <in.ipa>`

// runIPA drives the App Store package pipeline of Section 6.1 on host
// files: build an encrypted .ipa the way the store ships one, decrypt it
// with a device key (the jailbroken-iPhone step), and inspect packages.
func runIPA(args []string, stdout io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("%w: %s", errUsage, ipaUsage)
	}
	verb := args[0]
	fs := newFlags(verb)
	name := fs.String("name", "SampleApp", "app bundle name")
	bundle := fs.String("bundle", "com.example.sample", "bundle identifier")
	keySeed := fs.Uint64("key", 0xC1DE0000, "device key seed")
	if err := parse(fs, args[1:]); err != nil {
		return err
	}
	key := ipa.DeviceKey{Seed: *keySeed}
	wantArgs := map[string]int{"build": 1, "decrypt": 2, "info": 1}[verb]
	if wantArgs == 0 || fs.NArg() != wantArgs {
		return fmt.Errorf("%w: %s", errUsage, ipaUsage)
	}

	switch verb {
	case "build":
		bin, err := prog.MachOExecutable(*bundle, []string{"/usr/lib/libSystem.B.dylib"}, nil)
		if err != nil {
			return err
		}
		enc, err := ipa.EncryptBinary(bin, key)
		if err != nil {
			return err
		}
		pkg, err := ipa.Build(&ipa.App{
			Name: *name, BundleID: *bundle, Binary: enc,
			Assets: map[string][]byte{"Icon.png": []byte("ICON")},
		})
		if err != nil {
			return err
		}
		if err := os.WriteFile(fs.Arg(0), pkg, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "built encrypted %s (%d bytes)\n", fs.Arg(0), len(pkg))
	case "decrypt":
		in, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			return err
		}
		out, err := ipa.Decrypt(in, key)
		if err != nil {
			return err
		}
		if err := os.WriteFile(fs.Arg(1), out, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "decrypted %s -> %s\n", fs.Arg(0), fs.Arg(1))
	case "info":
		data, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			return err
		}
		app, err := ipa.Parse(data)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "name:    %s\nbundle:  %s\nbinary:  %d bytes\nassets:  %d\n",
			app.Name, app.BundleID, len(app.Binary), len(app.Assets))
		if mf, err := macho.Parse(app.Binary); err == nil {
			if mf.Encrypted() {
				fmt.Fprintln(stdout, "state:   FairPlay-encrypted (decrypt before installing on Cider)")
			} else {
				fmt.Fprintln(stdout, "state:   decrypted (installable on Cider)")
			}
		}
	}
	return nil
}

// runDucttape links the duct-taped foreign kernel subsystems (Mach IPC,
// pthread support, I/O Kit) against the domestic kernel under the
// three-zone discipline of Section 4.2 and prints each link report: zone
// membership, automatic symbol-conflict remaps, and any unresolved
// foreign externals (the duct tape implementation work list).
func runDucttape(args []string, stdout io.Writer) error {
	if err := parse(newFlags("ducttape"), args); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "== XNU subsystems (Mach IPC, pthread support) ==")
	img, err := ducttape.Link(xnu.AllUnits())
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, img.Report())

	fmt.Fprintln(stdout, "\n== I/O Kit (driver framework + C++ runtime) ==")
	if img, err = ducttape.Link(iokit.Units()); err != nil {
		return err
	}
	fmt.Fprint(stdout, img.Report())
	return nil
}
