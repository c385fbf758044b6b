// Package scale reproduces the paper's §9.1 scalability estimates: how
// many collector servers a Planck deployment needs for full-bisection
// fat-tree and Jellyfish networks, and what dedicating one monitor port
// per switch costs in host count.
package scale

import "fmt"

// CollectorsPerServer is the paper's estimate: fourteen 10 GbE ports fit
// in a 2U server, so one server hosts up to 14 collector instances.
const CollectorsPerServer = 14

// FatTree describes a three-level fat-tree built from p-port switches
// that dedicate m ports to monitoring.
//
// With k usable ports per switch (k = p - m), a three-level fat-tree has
// k^3/4 hosts, k^2/4 core switches, and k^2 pod switches (k pods of k
// switches), i.e. 5k^2/4 switches total.
type FatTree struct {
	SwitchPorts  int // physical ports per switch
	MonitorPorts int // ports given up for monitoring per switch
}

// UsablePorts returns k.
func (f FatTree) UsablePorts() int { return f.SwitchPorts - f.MonitorPorts }

// Hosts returns the host count k^3/4.
func (f FatTree) Hosts() int {
	k := f.UsablePorts()
	return k * k * k / 4
}

// Switches returns the switch count 5k^2/4.
func (f FatTree) Switches() int {
	k := f.UsablePorts()
	return 5 * k * k / 4
}

// Jellyfish describes an r-regular random graph topology with p-port
// switches, m monitor ports, and h host ports per switch. Following the
// Jellyfish paper's full-bisection guideline, each switch devotes enough
// ports to the network to support its hosts at full bisection
// (network ports >= 2*hosts-per-switch gives ~full bisection for random
// regular graphs).
type Jellyfish struct {
	SwitchPorts  int
	MonitorPorts int
	Hosts        int // target host count
}

// SwitchesFor returns how many switches a full-bisection Jellyfish needs
// for the target host count: each switch supports floor(k/3) hosts (a
// third of usable ports to hosts, two-thirds to the fabric, the standard
// full-bisection operating point used in the Jellyfish paper's
// comparisons).
func (j Jellyfish) SwitchesFor() int {
	k := j.SwitchPorts - j.MonitorPorts
	hostsPerSwitch := k / 3
	if hostsPerSwitch <= 0 {
		return 0
	}
	return ceilDiv(j.Hosts, hostsPerSwitch)
}

// Deployment summarizes a monitored network's overhead.
type Deployment struct {
	Hosts            int
	Switches         int
	CollectorServers int
	// ServerFraction is CollectorServers as a fraction of hosts.
	ServerFraction float64
}

// PlanFatTree sizes a monitored fat-tree deployment.
func PlanFatTree(switchPorts, monitorPorts int) Deployment {
	f := FatTree{SwitchPorts: switchPorts, MonitorPorts: monitorPorts}
	sw := f.Switches()
	servers := ceilDiv(sw*monitorPorts, CollectorsPerServer)
	if monitorPorts == 0 {
		servers = 0
	}
	d := Deployment{
		Hosts:            f.Hosts(),
		Switches:         sw,
		CollectorServers: servers,
	}
	if d.Hosts > 0 {
		d.ServerFraction = float64(servers) / float64(d.Hosts)
	}
	return d
}

// PlanJellyfish sizes a monitored Jellyfish deployment for a target host
// count.
func PlanJellyfish(switchPorts, monitorPorts, hosts int) Deployment {
	j := Jellyfish{SwitchPorts: switchPorts, MonitorPorts: monitorPorts, Hosts: hosts}
	sw := j.SwitchesFor()
	servers := ceilDiv(sw*monitorPorts, CollectorsPerServer)
	if monitorPorts == 0 {
		servers = 0
	}
	d := Deployment{
		Hosts:            hosts,
		Switches:         sw,
		CollectorServers: servers,
	}
	if hosts > 0 {
		d.ServerFraction = float64(servers) / float64(hosts)
	}
	return d
}

// HostCountCost returns the fractional host-count reduction caused by
// dedicating monitor ports, comparing like-for-like topologies.
func HostCountCost(with, without Deployment) float64 {
	if without.Hosts == 0 {
		return 0
	}
	return 1 - float64(with.Hosts)/float64(without.Hosts)
}

// String renders the deployment for reports.
func (d Deployment) String() string {
	return fmt.Sprintf("%d hosts, %d switches, %d collector servers (%.2f%% of hosts)",
		d.Hosts, d.Switches, d.CollectorServers, d.ServerFraction*100)
}

func ceilDiv(a, b int) int {
	if b == 0 {
		return 0
	}
	return (a + b - 1) / b
}
