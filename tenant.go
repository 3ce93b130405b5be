package xsltdb

// Multi-tenancy: a Database can host several tenants that share its tables,
// views and compiled plans but not their budgets. Each tenant gets its own
// limits, resolved by the serving layer on every request, so one tenant
// burning its budget cannot slow another's runs. Plans are immutable and a
// failing strategy degrades per run, so sharing one compile across tenants
// leaks no state between them.

import (
	"sort"
	"time"
)

// TenantLimits caps one tenant's use of a shared database. The zero value
// means "no limit" for every field.
type TenantLimits struct {
	// MaxConcurrent bounds the tenant's in-flight runs; excess requests
	// are shed by the serving layer with 429. Zero admits everything.
	MaxConcurrent int
	// Timeout bounds each run's wall time (see WithTimeout).
	Timeout time.Duration
	// MaxRows bounds result rows per run (see WithMaxRows).
	MaxRows int64
	// MaxOutputBytes bounds serialized output per run (see
	// WithMaxOutputBytes).
	MaxOutputBytes int64
}

// RegisterTenant adds or replaces a tenant's limits. Tenants may also be
// pre-registered at open time with WithTenant.
func (d *Database) RegisterTenant(name string, lim TenantLimits) error {
	if err := d.checkOpen(); err != nil {
		return err
	}
	d.mu.Lock()
	d.tenants[name] = lim
	d.mu.Unlock()
	return nil
}

// Tenant reports the limits registered for name, and whether name is a
// registered tenant at all.
func (d *Database) Tenant(name string) (TenantLimits, bool) {
	d.mu.RLock()
	lim, ok := d.tenants[name]
	d.mu.RUnlock()
	return lim, ok
}

// Tenants lists the registered tenant names, sorted.
func (d *Database) Tenants() []string {
	d.mu.RLock()
	names := make([]string, 0, len(d.tenants))
	for name := range d.tenants {
		names = append(names, name)
	}
	d.mu.RUnlock()
	sort.Strings(names)
	return names
}

// ViewVersion reports the current version of a view: 0 if the view has
// never been (re)defined under that name, otherwise the count of
// CreateXMLView/ReplaceXMLView calls for it. The serving layer keys its
// result cache on this, so a ReplaceXMLView naturally invalidates every
// cached result for the view.
func (d *Database) ViewVersion(name string) int {
	d.mu.RLock()
	v := d.viewVersions[name]
	d.mu.RUnlock()
	return v
}
