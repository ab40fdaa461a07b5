package vfs

// Overlay is the union filesystem Cider uses to present the iOS hierarchy
// over the Android filesystem (Section 3): lookups hit the upper (iOS)
// layer first and fall back to the lower (Android) layer; all modifications
// go to the upper layer, copying files up first when needed. Directory
// listings union both layers, with upper entries shadowing lower ones.
type Overlay struct {
	upper *FS
	lower *FS
}

// NewOverlay builds an overlay of upper on top of lower. From then on a
// name added to upper that shadows a lower-layer node moves upper's
// generation (see FS.Stamp), whether it is added through the overlay or
// through upper directly.
func NewOverlay(upper, lower *FS) *Overlay {
	upper.under = lower
	return &Overlay{upper: upper, lower: lower}
}

// Upper returns the writable top layer.
func (o *Overlay) Upper() *FS { return o.upper }

// Lookup resolves p in the upper layer, then the lower.
func (o *Overlay) Lookup(p string) (*Node, error) {
	if n, err := o.upper.Lookup(p); err == nil {
		return n, nil
	}
	return o.lower.Lookup(p)
}

// Stamp is FS.Stamp over both layers: the sum of their generations,
// which moves whenever either does, and pure only when neither layer is
// hooked.
func (o *Overlay) Stamp() (gen uint64, pure bool) {
	ug, up := o.upper.Stamp()
	lg, lp := o.lower.Stamp()
	return ug + lg, up && lp
}

// LookupPlain is FS.LookupPlain in Lookup's layer order: plain when the
// resolution was plain in each layer it consulted.
func (o *Overlay) LookupPlain(p string) (*Node, error, bool) {
	n, err, plain := o.upper.LookupPlain(p)
	if err == nil {
		return n, nil, plain
	}
	n, err, lower := o.lower.LookupPlain(p)
	return n, err, plain && lower
}

// copyUp ensures p's parents exist in the upper layer.
func (o *Overlay) copyUp(p string) error {
	dir, _ := Split(p)
	if _, err := o.lower.Lookup(dir); err == nil {
		return o.upper.MkdirAll(dir)
	}
	return nil
}

// Create makes a new file in the upper layer.
func (o *Overlay) Create(p string) (*Node, error) {
	if _, err := o.Lookup(p); err == nil {
		return nil, &ErrExists{Path: Clean(p)}
	}
	if err := o.copyUp(p); err != nil {
		return nil, err
	}
	return o.upper.Create(p)
}

// Mkdir creates a directory in the upper layer.
func (o *Overlay) Mkdir(p string) error {
	if _, err := o.Lookup(p); err == nil {
		return &ErrExists{Path: Clean(p)}
	}
	if err := o.copyUp(p); err != nil {
		return err
	}
	return o.upper.Mkdir(p)
}

// MkdirAll creates a directory chain in the upper layer.
func (o *Overlay) MkdirAll(p string) error {
	return o.upper.MkdirAll(p)
}

// Symlink creates a symlink in the upper layer.
func (o *Overlay) Symlink(target, p string) error {
	if err := o.copyUp(p); err != nil {
		return err
	}
	return o.upper.Symlink(target, p)
}

// Mknod creates a device node in the upper layer.
func (o *Overlay) Mknod(p string, dev Device) error {
	if err := o.copyUp(p); err != nil {
		return err
	}
	return o.upper.Mknod(p, dev)
}

// Remove unlinks from whichever layer holds p; removing a lower-layer file
// is rejected (the simulation does not need whiteouts — Cider never deletes
// Android system files through the overlay).
func (o *Overlay) Remove(p string) error {
	if _, err := o.upper.Lstat(p); err == nil {
		return o.upper.Remove(p)
	}
	if _, err := o.lower.Lookup(p); err == nil {
		return &ErrExists{Path: Clean(p) + " (lower layer is read-only)"}
	}
	return &ErrNotFound{Path: Clean(p)}
}

// ReadDir unions the listings of both layers; upper entries shadow lower
// entries of the same name. Both listings arrive in name order, so one
// merge pass produces the union in name order.
func (o *Overlay) ReadDir(p string) ([]*Node, error) {
	up, upErr := o.upper.ReadDir(p)
	low, lowErr := o.lower.ReadDir(p)
	if upErr != nil && lowErr != nil {
		return nil, upErr
	}
	out := make([]*Node, 0, len(up)+len(low))
	i, j := 0, 0
	for i < len(up) && j < len(low) {
		switch u, l := up[i].name, low[j].name; {
		case u < l:
			out = append(out, up[i])
			i++
		case l < u:
			out = append(out, low[j])
			j++
		default:
			out = append(out, up[i])
			i++
			j++
		}
	}
	out = append(out, up[i:]...)
	return append(out, low[j:]...), nil
}

// Rename operates within the upper layer, copying the source up from the
// lower layer first if necessary.
func (o *Overlay) Rename(oldp, newp string) error {
	if _, err := o.upper.Lstat(oldp); err != nil {
		// Copy the lower file up, then rename within upper.
		data, rerr := o.lower.ReadFile(oldp)
		if rerr != nil {
			return rerr
		}
		if err := o.upper.WriteFile(oldp, data); err != nil {
			return err
		}
	}
	if err := o.copyUp(newp); err != nil {
		return err
	}
	return o.upper.Rename(oldp, newp)
}

// WriteFile writes to the upper layer.
func (o *Overlay) WriteFile(p string, data []byte) error {
	return o.upper.WriteFile(p, data)
}

// ReadFile reads from the union.
func (o *Overlay) ReadFile(p string) ([]byte, error) {
	n, err := o.Lookup(p)
	if err != nil {
		return nil, err
	}
	if n.IsDir() {
		return nil, &ErrIsDir{Path: Clean(p)}
	}
	return append([]byte(nil), n.data...), nil
}
