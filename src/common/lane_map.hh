/**
 * @file
 * A per-page map split by machine lane.
 *
 * The profile stream runs its references on the kMachineLanes
 * address lanes concurrently (DESIGN.md, intra-run sharding), and a
 * policy's access-feedback window is written from those lanes.  A
 * LaneMap keeps one FlatMap per lane and files every key under
 * laneOf(key), so each lane writes only its own map and needs no
 * lock; each lane's map sits on its own cache lines.  Lookups go to
 * the owning lane, so find/contains answer exactly as one map would.
 * There is no iteration: the order would depend on the split.
 */

#ifndef THERMOSTAT_COMMON_LANE_MAP_HH
#define THERMOSTAT_COMMON_LANE_MAP_HH

#include <array>

#include "common/flat_map.hh"
#include "common/types.hh"

namespace thermostat
{

template <typename Value>
class LaneMap
{
  public:
    /** The entry for @p key, default-constructed when absent. */
    Value &operator[](Addr key) { return lanes_[laneOf(key)].map[key]; }

    /** The entry for @p key, or null. */
    const Value *
    find(Addr key) const
    {
        const FlatMap<Addr, Value> &lane = lanes_[laneOf(key)].map;
        const auto it = lane.find(key);
        return it == lane.end() ? nullptr : &it->value;
    }

    bool contains(Addr key) const { return find(key) != nullptr; }

    void
    clear()
    {
        for (Lane &lane : lanes_) {
            lane.map.clear();
        }
    }

  private:
    struct alignas(64) Lane
    {
        FlatMap<Addr, Value> map;
    };

    std::array<Lane, kMachineLanes> lanes_;
};

} // namespace thermostat

#endif // THERMOSTAT_COMMON_LANE_MAP_HH
