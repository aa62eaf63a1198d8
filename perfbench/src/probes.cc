#include "probes.hh"

#include <memory>
#include <string>

namespace perfbench {

using namespace ecosched;

namespace {

class TimedOndemand : public OndemandGovernor
{
  public:
    explicit TimedOndemand(ReplayProbe &probe) : p(probe) {}

    void tick(System &system) override
    {
        const std::int64_t t0 = nowNs();
        OndemandGovernor::tick(system);
        p.governorTick.add(nowNs() - t0);
    }

    Seconds nextActivity(const System &system) const override
    {
        const std::int64_t t0 = nowNs();
        const Seconds h = OndemandGovernor::nextActivity(system);
        p.horizon.add(nowNs() - t0);
        return h;
    }

  private:
    ReplayProbe &p;
};

class TimedSpreadPlacer : public LinuxSpreadPlacer
{
  public:
    explicit TimedSpreadPlacer(ReplayProbe &probe) : p(probe) {}

    std::vector<CoreId> place(const System &system,
                              const Process &process,
                              std::uint32_t threads) override
    {
        const std::int64_t t0 = nowNs();
        auto cores = LinuxSpreadPlacer::place(system, process, threads);
        p.spreadPlace.add(nowNs() - t0);
        return cores;
    }

  private:
    ReplayProbe &p;
};

/// Same name as the daemon's own adapters, so System snapshots see
/// an unchanged governor identity.
constexpr const char *daemonAdapterName = "ecosched-daemon";

class DaemonGovernorProbe : public Governor
{
  public:
    DaemonGovernorProbe(Daemon &daemon, ReplayProbe &probe)
        : owner(daemon), p(probe)
    {
    }

    const char *name() const override { return daemonAdapterName; }

    void tick(System &) override
    {
        const std::int64_t t0 = nowNs();
        owner.tick();
        p.daemonTick.add(nowNs() - t0);
    }

    bool wouldAct(const System &) const override
    {
        return owner.wouldTick();
    }

    Seconds nextActivity(const System &) const override
    {
        const std::int64_t t0 = nowNs();
        const Seconds h = owner.nextTickTime();
        p.horizon.add(nowNs() - t0);
        return h;
    }

  private:
    Daemon &owner;
    ReplayProbe &p;
};

class DaemonPlacerProbe : public PlacementPolicy
{
  public:
    DaemonPlacerProbe(Daemon &daemon, ReplayProbe &probe)
        : owner(daemon), p(probe)
    {
    }

    const char *name() const override { return daemonAdapterName; }

    std::vector<CoreId> place(const System &, const Process &process,
                              std::uint32_t threads) override
    {
        const std::int64_t t0 = nowNs();
        auto cores = owner.placeNewProcess(process, threads);
        p.daemonPlace.add(nowNs() - t0);
        return cores;
    }

  private:
    Daemon &owner;
    ReplayProbe &p;
};

/// Refuse to probe a stack whose policy objects are not the stock
/// ones the probes replicate (e.g. a shadow-mode placer).
void
expectPolicyObjects(System &system, const char *placer,
                    const char *governor)
{
    fatalIf(std::string(system.placementPolicy().name()) != placer
                || std::string(system.governor().name()) != governor,
            "probes expect placer ", placer, " and governor ",
            governor, ", found ", system.placementPolicy().name(),
            " and ", system.governor().name());
}

} // namespace

std::function<void(Machine &, System &, Daemon *)>
probeInstaller(PolicyKind policy, ReplayProbe &probe)
{
    return [policy, &probe](Machine &, System &system, Daemon *daemon) {
        switch (policy) {
          case PolicyKind::Baseline:
          case PolicyKind::SafeVmin:
            expectPolicyObjects(system, "linux-spread", "ondemand");
            system.setPlacementPolicy(
                std::make_unique<TimedSpreadPlacer>(probe));
            system.setGovernor(std::make_unique<TimedOndemand>(probe));
            break;
          case PolicyKind::Placement:
          case PolicyKind::Optimal:
            fatalIf(daemon == nullptr, "daemon policy without daemon");
            expectPolicyObjects(system, daemonAdapterName,
                                daemonAdapterName);
            system.setPlacementPolicy(
                std::make_unique<DaemonPlacerProbe>(*daemon, probe));
            system.setGovernor(
                std::make_unique<DaemonGovernorProbe>(*daemon, probe));
            break;
          default:
            fatal("no probes for policy ", policyKindName(policy));
        }
    };
}

} // namespace perfbench
