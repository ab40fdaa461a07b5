// Package macho implements the Mach-O binary format used by iOS apps and
// dylibs: byte-level encoding and decoding of the header, load commands
// (segments, symbol table, dylib references, dylinker, entry point,
// encryption info), exactly as Cider's kernel Mach-O loader and dyld
// consume them (Sections 2 and 4.1 of the paper).
//
// The encoding follows the real 32-bit little-endian ARM Mach-O layout
// (mach_header, load_command, segment_command, nlist, ...) from Apple's
// "OS X ABI Mach-O File Format Reference". iOS apps in the paper's era were
// armv7 binaries. Program text is carried as opaque section bytes; the
// execution layer binds the __text payload to registered program code by
// symbol, the way dyld binds symbols to implementations.
package macho

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
)

// Magic32 is the 32-bit little-endian Mach-O magic (MH_MAGIC).
const Magic32 = 0xfeedface

// CPU types (mach/machine.h).
const (
	// CPUTypeARM is CPU_TYPE_ARM.
	CPUTypeARM = 12
	// CPUSubtypeARMV7 is CPU_SUBTYPE_ARM_V7.
	CPUSubtypeARMV7 = 9
)

// File types (mach-o/loader.h).
const (
	// TypeExecute is MH_EXECUTE, a demand-paged executable.
	TypeExecute = 2
	// TypeDylib is MH_DYLIB, a dynamically bound shared library.
	TypeDylib = 6
)

// Header flags.
const (
	// FlagNoUndefs is MH_NOUNDEFS.
	FlagNoUndefs = 0x1
	// FlagDyldLink is MH_DYLDLINK.
	FlagDyldLink = 0x4
	// FlagPIE is MH_PIE.
	FlagPIE = 0x200000
)

// Load command types (mach-o/loader.h).
const (
	// LCSegment is LC_SEGMENT (32-bit segment).
	LCSegment = 0x1
	// LCSymtab is LC_SYMTAB.
	LCSymtab = 0x2
	// LCUnixThread is LC_UNIXTHREAD (pre-LC_MAIN entry point).
	LCUnixThread = 0x5
	// LCLoadDylib is LC_LOAD_DYLIB.
	LCLoadDylib = 0xc
	// LCIDDylib is LC_ID_DYLIB.
	LCIDDylib = 0xd
	// LCLoadDylinker is LC_LOAD_DYLINKER.
	LCLoadDylinker = 0xe
	// LCEncryptionInfo is LC_ENCRYPTION_INFO (FairPlay app encryption).
	LCEncryptionInfo = 0x21
	// LCMain is LC_MAIN (entry point offset), 0x28 | LC_REQ_DYLD.
	LCMain = 0x80000028
)

// VM protections (mach/vm_prot.h).
const (
	// ProtRead is VM_PROT_READ.
	ProtRead = 0x1
	// ProtWrite is VM_PROT_WRITE.
	ProtWrite = 0x2
	// ProtExecute is VM_PROT_EXECUTE.
	ProtExecute = 0x4
)

// Symbol type bits (mach-o/nlist.h).
const (
	// NTypeExt marks an external (exported or undefined-imported) symbol.
	NTypeExt = 0x01
	// NTypeSect marks a symbol defined in a section.
	NTypeSect = 0x0e
	// NTypeUndef marks an undefined symbol (to be bound by dyld).
	NTypeUndef = 0x00
)

// Section is a named range within a segment.
type Section struct {
	// Name is the section name (e.g. "__text"), at most 16 bytes.
	Name string
	// Addr is the section's virtual address.
	Addr uint32
	// Size is the section length.
	Size uint32
	// Offset is the section's position in the file.
	Offset uint32
}

// Segment is a loadable virtual memory range.
type Segment struct {
	// Name is the segment name ("__TEXT", "__DATA", "__LINKEDIT"), at most
	// 16 bytes.
	Name string
	// VMAddr is the load address.
	VMAddr uint32
	// VMSize is the in-memory size (>= len(Data), zero-filled).
	VMSize uint32
	// Prot is the initial VM protection.
	Prot uint32
	// Data is the file contents of the segment.
	Data []byte
	// Sections subdivide the segment.
	Sections []Section
}

// Symbol is one nlist entry.
type Symbol struct {
	// Name is the symbol string (with leading underscore, Mach-O style).
	Name string
	// Type is the n_type byte.
	Type uint8
	// Sect is the 1-based section ordinal (0 = NO_SECT).
	Sect uint8
	// Value is the symbol address (n_value).
	Value uint32
}

// Exported reports whether the symbol is an external definition.
func (s Symbol) Exported() bool {
	return s.Type&NTypeExt != 0 && s.Type&NTypeSect != 0
}

// Undefined reports whether the symbol must be bound by dyld.
func (s Symbol) Undefined() bool {
	return s.Type&NTypeExt != 0 && s.Type&NTypeSect == 0
}

// EncryptionInfo mirrors LC_ENCRYPTION_INFO: App Store binaries ship with
// their __TEXT pages FairPlay-encrypted (CryptID != 0) and must be
// decrypted with device keys before they can run anywhere else
// (Section 6.1).
type EncryptionInfo struct {
	// CryptOff is the file offset of the encrypted range.
	CryptOff uint32
	// CryptSize is the length of the encrypted range.
	CryptSize uint32
	// CryptID is the encryption system (0 = not encrypted).
	CryptID uint32
}

// File is a parsed or under-construction Mach-O image.
type File struct {
	// CPUType and CPUSubtype identify the architecture.
	CPUType    uint32
	CPUSubtype uint32
	// FileType is TypeExecute or TypeDylib.
	FileType uint32
	// Flags are the mach_header flags.
	Flags uint32
	// Segments are the loadable segments in file order.
	Segments []*Segment
	// Symbols is the symbol table.
	Symbols []Symbol
	// Dylibs are the LC_LOAD_DYLIB install names, in load order.
	Dylibs []string
	// DylibID is the LC_ID_DYLIB install name (dylibs only).
	DylibID string
	// Dylinker is the LC_LOAD_DYLINKER path (executables; "/usr/lib/dyld").
	Dylinker string
	// EntryOffset is the LC_MAIN entry point file offset (executables).
	EntryOffset uint32
	// HasEntry records whether an LC_MAIN command is present.
	HasEntry bool
	// Encryption is the LC_ENCRYPTION_INFO payload, if present.
	Encryption *EncryptionInfo
}

// Segment returns the named segment, or nil.
func (f *File) Segment(name string) *Segment {
	for _, s := range f.Segments {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// Lookup returns the symbol with the given name.
func (f *File) Lookup(name string) (Symbol, bool) {
	for _, s := range f.Symbols {
		if s.Name == name {
			return s, true
		}
	}
	return Symbol{}, false
}

// ExportedSymbols returns all external definitions, in table order.
func (f *File) ExportedSymbols() []Symbol {
	var out []Symbol
	for _, s := range f.Symbols {
		if s.Exported() {
			out = append(out, s)
		}
	}
	return out
}

// UndefinedSymbols returns all dyld-bound imports, in table order.
func (f *File) UndefinedSymbols() []Symbol {
	var out []Symbol
	for _, s := range f.Symbols {
		if s.Undefined() {
			out = append(out, s)
		}
	}
	return out
}

// Encrypted reports whether the image carries FairPlay-encrypted text.
func (f *File) Encrypted() bool {
	return f.Encryption != nil && f.Encryption.CryptID != 0
}

const (
	headerSize     = 28 // sizeof(struct mach_header)
	segCmdSize     = 56 // sizeof(struct segment_command)
	sectSize       = 68 // sizeof(struct section)
	symtabCmdSize  = 24 // sizeof(struct symtab_command)
	dylibCmdSize   = 24 // sizeof(struct dylib_command) before the name
	nlistSize      = 12 // sizeof(struct nlist)
	encInfoCmdSize = 20 // sizeof(struct encryption_info_command)
	mainCmdSize    = 24 // sizeof(struct entry_point_command)
)

var le = binary.LittleEndian

func pad16(s string) ([]byte, error) {
	if len(s) > 16 {
		return nil, fmt.Errorf("macho: name %q exceeds 16 bytes", s)
	}
	b := make([]byte, 16)
	copy(b, s)
	return b, nil
}

func unpad16(b []byte) string {
	i := bytes.IndexByte(b, 0)
	if i < 0 {
		i = len(b)
	}
	return string(b[:i])
}

// align4 rounds n up to a multiple of 4 (load command sizes must be).
func align4(n int) int { return (n + 3) &^ 3 }

// Marshal encodes the file into Mach-O bytes. Segment file offsets and the
// symbol table layout are computed here; Section.Offset values are set
// relative to the final layout.
func (f *File) Marshal() ([]byte, error) {
	// First pass: compute load command sizes.
	cmdsSize := 0
	for _, seg := range f.Segments {
		cmdsSize += segCmdSize + sectSize*len(seg.Sections)
	}
	if len(f.Symbols) > 0 {
		cmdsSize += symtabCmdSize
	}
	for _, d := range f.Dylibs {
		cmdsSize += dylibCmdSize + align4(len(d)+1)
	}
	if f.DylibID != "" {
		cmdsSize += dylibCmdSize + align4(len(f.DylibID)+1)
	}
	if f.Dylinker != "" {
		cmdsSize += 12 + align4(len(f.Dylinker)+1)
	}
	if f.Encryption != nil {
		cmdsSize += encInfoCmdSize
	}
	if f.HasEntry {
		cmdsSize += mainCmdSize
	}
	ncmds := len(f.Segments) + len(f.Dylibs)
	if len(f.Symbols) > 0 {
		ncmds++
	}
	if f.DylibID != "" {
		ncmds++
	}
	if f.Dylinker != "" {
		ncmds++
	}
	if f.Encryption != nil {
		ncmds++
	}
	if f.HasEntry {
		ncmds++
	}

	// Layout: header, load commands, segment data (in order), symtab,
	// string table.
	dataStart := headerSize + cmdsSize
	segOffsets := make([]int, len(f.Segments))
	off := dataStart
	for i, seg := range f.Segments {
		segOffsets[i] = off
		off += len(seg.Data)
	}
	symOff := off
	strOff := symOff + nlistSize*len(f.Symbols)

	// String table: index 0 is a NUL so n_strx==0 means "no name".
	var strtab bytes.Buffer
	strtab.WriteByte(0)
	strx := make([]uint32, len(f.Symbols))
	for i, s := range f.Symbols {
		strx[i] = uint32(strtab.Len())
		strtab.WriteString(s.Name)
		strtab.WriteByte(0)
	}

	var buf bytes.Buffer
	w := func(v any) { binary.Write(&buf, le, v) }

	// mach_header.
	w(uint32(Magic32))
	w(f.CPUType)
	w(f.CPUSubtype)
	w(f.FileType)
	w(uint32(ncmds))
	w(uint32(cmdsSize))
	w(f.Flags)

	// Load commands.
	for i, seg := range f.Segments {
		name, err := pad16(seg.Name)
		if err != nil {
			return nil, err
		}
		w(uint32(LCSegment))
		w(uint32(segCmdSize + sectSize*len(seg.Sections)))
		buf.Write(name)
		w(seg.VMAddr)
		vmsize := seg.VMSize
		if vmsize < uint32(len(seg.Data)) {
			vmsize = uint32(len(seg.Data))
		}
		w(vmsize)
		w(uint32(segOffsets[i])) // fileoff
		w(uint32(len(seg.Data))) // filesize
		w(seg.Prot)              // maxprot
		w(seg.Prot)              // initprot
		w(uint32(len(seg.Sections)))
		w(uint32(0)) // flags
		for _, sec := range seg.Sections {
			sn, err := pad16(sec.Name)
			if err != nil {
				return nil, err
			}
			gn, _ := pad16(seg.Name)
			buf.Write(sn)
			buf.Write(gn)
			w(sec.Addr)
			w(sec.Size)
			w(uint32(segOffsets[i]) + sec.Offset)
			w(uint32(0)) // align
			w(uint32(0)) // reloff
			w(uint32(0)) // nreloc
			w(uint32(0)) // flags
			w(uint32(0)) // reserved1
			w(uint32(0)) // reserved2
		}
	}
	if len(f.Symbols) > 0 {
		w(uint32(LCSymtab))
		w(uint32(symtabCmdSize))
		w(uint32(symOff))
		w(uint32(len(f.Symbols)))
		w(uint32(strOff))
		w(uint32(strtab.Len()))
	}
	writeDylib := func(cmd uint32, name string) {
		sz := dylibCmdSize + align4(len(name)+1)
		w(cmd)
		w(uint32(sz))
		w(uint32(dylibCmdSize)) // name offset within command
		w(uint32(0))            // timestamp
		w(uint32(0x10000))      // current_version 1.0.0
		w(uint32(0x10000))      // compatibility_version
		nb := make([]byte, align4(len(name)+1))
		copy(nb, name)
		buf.Write(nb)
	}
	if f.DylibID != "" {
		writeDylib(LCIDDylib, f.DylibID)
	}
	for _, d := range f.Dylibs {
		writeDylib(LCLoadDylib, d)
	}
	if f.Dylinker != "" {
		sz := 12 + align4(len(f.Dylinker)+1)
		w(uint32(LCLoadDylinker))
		w(uint32(sz))
		w(uint32(12))
		nb := make([]byte, align4(len(f.Dylinker)+1))
		copy(nb, f.Dylinker)
		buf.Write(nb)
	}
	if f.Encryption != nil {
		// A zero CryptOff/CryptSize means "cover the __TEXT segment":
		// Marshal fills in the final file layout, the way the App Store
		// encryption pipeline wraps a submitted binary.
		off, size := f.Encryption.CryptOff, f.Encryption.CryptSize
		if off == 0 && size == 0 {
			for i, seg := range f.Segments {
				if seg.Name == "__TEXT" {
					off = uint32(segOffsets[i])
					size = uint32(len(seg.Data))
				}
			}
		}
		w(uint32(LCEncryptionInfo))
		w(uint32(encInfoCmdSize))
		w(off)
		w(size)
		w(f.Encryption.CryptID)
	}
	if f.HasEntry {
		w(uint32(LCMain))
		w(uint32(mainCmdSize))
		w(uint64(f.EntryOffset)) // entryoff
		w(uint64(0))             // stacksize
	}

	if buf.Len() != dataStart {
		return nil, fmt.Errorf("macho: layout bug: header+cmds = %d, want %d", buf.Len(), dataStart)
	}

	// Segment data.
	for _, seg := range f.Segments {
		buf.Write(seg.Data)
	}
	// Symbol table.
	for i, s := range f.Symbols {
		w(strx[i])
		w(s.Type)
		w(s.Sect)
		w(uint16(0)) // n_desc
		w(s.Value)
	}
	buf.Write(strtab.Bytes())
	return buf.Bytes(), nil
}

// ErrBadMagic reports a non-Mach-O image (the binfmt loader uses it to fall
// through to the next loader, as binfmt handlers do in Linux).
type ErrBadMagic struct{ Got uint32 }

func (e *ErrBadMagic) Error() string {
	return fmt.Sprintf("macho: bad magic 0x%08x (want 0x%08x)", e.Got, uint32(Magic32))
}

// Parse decodes a Mach-O image.
func Parse(b []byte) (*File, error) {
	if len(b) < headerSize {
		return nil, &ErrBadMagic{}
	}
	if le.Uint32(b[0:]) != Magic32 {
		return nil, &ErrBadMagic{Got: le.Uint32(b[0:])}
	}
	f := &File{
		CPUType:    le.Uint32(b[4:]),
		CPUSubtype: le.Uint32(b[8:]),
		FileType:   le.Uint32(b[12:]),
		Flags:      le.Uint32(b[24:]),
	}
	ncmds := int(le.Uint32(b[16:]))
	cmdsSize := int(le.Uint32(b[20:]))
	if headerSize+cmdsSize > len(b) {
		return nil, fmt.Errorf("macho: truncated load commands")
	}
	off := headerSize
	var symtabOff, nsyms, strOff, strSize int
	for i := 0; i < ncmds; i++ {
		if off+8 > len(b) {
			return nil, fmt.Errorf("macho: truncated command %d", i)
		}
		cmd := le.Uint32(b[off:])
		sz := int(le.Uint32(b[off+4:]))
		if sz < 8 || off+sz > len(b) {
			return nil, fmt.Errorf("macho: bad command size %d at %d", sz, off)
		}
		body := b[off : off+sz]
		switch cmd {
		case LCSegment:
			if sz < segCmdSize {
				return nil, fmt.Errorf("macho: short segment command")
			}
			seg := &Segment{
				Name:   unpad16(body[8:24]),
				VMAddr: le.Uint32(body[24:]),
				VMSize: le.Uint32(body[28:]),
				Prot:   le.Uint32(body[44:]), // initprot
			}
			fileoff := int(le.Uint32(body[32:]))
			filesize := int(le.Uint32(body[36:]))
			if fileoff+filesize > len(b) {
				return nil, fmt.Errorf("macho: segment %q data out of range", seg.Name)
			}
			// Full-capacity subslice, not a copy: parsing is read-only, and
			// every consumer (loaders, dyld, the exec path) copies segment
			// bytes into its own backing before mutating. Aliasing the input
			// makes Parse allocation-free in the data dimension, which
			// matters because boot parses ~90MB of dylib images.
			seg.Data = b[fileoff : fileoff+filesize : fileoff+filesize]
			nsects := int(le.Uint32(body[48:]))
			so := segCmdSize
			for s := 0; s < nsects; s++ {
				if so+sectSize > sz {
					return nil, fmt.Errorf("macho: truncated sections in %q", seg.Name)
				}
				sec := Section{
					Name:   unpad16(body[so : so+16]),
					Addr:   le.Uint32(body[so+32:]),
					Size:   le.Uint32(body[so+36:]),
					Offset: le.Uint32(body[so+40:]) - uint32(fileoff),
				}
				seg.Sections = append(seg.Sections, sec)
				so += sectSize
			}
			f.Segments = append(f.Segments, seg)
		case LCSymtab:
			symtabOff = int(le.Uint32(body[8:]))
			nsyms = int(le.Uint32(body[12:]))
			strOff = int(le.Uint32(body[16:]))
			strSize = int(le.Uint32(body[20:]))
		case LCLoadDylib, LCIDDylib:
			nameOff := int(le.Uint32(body[8:]))
			if nameOff >= sz {
				return nil, fmt.Errorf("macho: bad dylib name offset")
			}
			name := cstr(body[nameOff:])
			if cmd == LCLoadDylib {
				f.Dylibs = append(f.Dylibs, name)
			} else {
				f.DylibID = name
			}
		case LCLoadDylinker:
			nameOff := int(le.Uint32(body[8:]))
			if nameOff >= sz {
				return nil, fmt.Errorf("macho: bad dylinker name offset")
			}
			f.Dylinker = cstr(body[nameOff:])
		case LCEncryptionInfo:
			f.Encryption = &EncryptionInfo{
				CryptOff:  le.Uint32(body[8:]),
				CryptSize: le.Uint32(body[12:]),
				CryptID:   le.Uint32(body[16:]),
			}
		case LCMain:
			f.EntryOffset = uint32(le.Uint64(body[8:]))
			f.HasEntry = true
		}
		off += sz
	}
	if nsyms > 0 {
		if symtabOff+nsyms*nlistSize > len(b) || strOff+strSize > len(b) {
			return nil, fmt.Errorf("macho: symbol table out of range")
		}
		strtab := b[strOff : strOff+strSize]
		for i := 0; i < nsyms; i++ {
			e := b[symtabOff+i*nlistSize:]
			strx := int(le.Uint32(e[0:]))
			name := ""
			if strx > 0 && strx < len(strtab) {
				name = cstr(strtab[strx:])
			}
			f.Symbols = append(f.Symbols, Symbol{
				Name:  name,
				Type:  e[4],
				Sect:  e[5],
				Value: le.Uint32(e[8:]),
			})
		}
	}
	return f, nil
}

// Sniff reports whether b starts with a Mach-O header, and that header's
// filetype, without decoding any load commands. Binary-format detection
// (Recognize in the loaders) runs on every exec; it only needs these eight
// header bytes, not a full parse.
func Sniff(b []byte) (filetype uint32, ok bool) {
	if len(b) < headerSize || le.Uint32(b[0:]) != Magic32 {
		return 0, false
	}
	return le.Uint32(b[12:]), true
}

// sharedFiles caches ParseShared results keyed by the identity of the input
// buffer's backing array. Keying on the *byte pins that array alive for the
// life of the entry, so a key can never be recycled for different bytes.
// The population is bounded by the number of distinct binaries in the
// process — dominated by the template dylib images every booted System now
// shares (see internal/core's filesystem templates); core also memoizes
// the executables it installs per cell, so each is one array too.
var sharedFiles sync.Map // *byte -> *sharedEntry

type sharedEntry struct {
	n int
	f *File
}

// ParseShared is Parse for callers that re-decode the same immutable image
// over and over (dyld loads the same 100+ dylibs for every exec of every
// booted System). It returns one cached *File per distinct input buffer;
// the caller must treat the result — and the buffer — as immutable.
// Rewriting a file in the simulated VFS installs a fresh data slice
// (vfs.SetData), which misses the cache and re-parses, so stale hits would
// require mutating a binary's bytes in place through Data(), which the VFS
// contract already forbids.
func ParseShared(b []byte) (*File, error) {
	if len(b) == 0 {
		return Parse(b)
	}
	key := &b[0]
	if v, ok := sharedFiles.Load(key); ok {
		if e := v.(*sharedEntry); e.n == len(b) {
			return e.f, nil
		}
		// Same backing array, different length (a resliced prefix):
		// rare enough to just parse unshared.
		return Parse(b)
	}
	f, err := Parse(b)
	if err != nil {
		return nil, err
	}
	sharedFiles.Store(key, &sharedEntry{n: len(b), f: f})
	return f, nil
}

func cstr(b []byte) string {
	i := bytes.IndexByte(b, 0)
	if i < 0 {
		return string(b)
	}
	return string(b[:i])
}
