#include "raizn/relocation.h"

#include <cassert>

namespace raizn {

void
RelocationMap::insert(Relocation rel)
{
    assert(rel.nsectors > 0);
    map_[rel.lba] = std::move(rel);
}

void
RelocationMap::drop_zone(uint64_t zone_start, uint64_t zone_end)
{
    auto it = map_.lower_bound(zone_start);
    while (it != map_.end() && it->first < zone_end)
        it = map_.erase(it);
}

const Relocation *
RelocationMap::find(uint64_t lba) const
{
    auto it = map_.upper_bound(lba);
    if (it == map_.begin())
        return nullptr;
    --it;
    const Relocation &rel = it->second;
    if (lba >= rel.lba && lba < rel.lba + rel.nsectors)
        return &rel;
    return nullptr;
}

void
RelocationMap::set_md_pba(uint64_t lba, uint32_t dev, uint64_t md_pba)
{
    auto it = map_.find(lba);
    if (it != map_.end() && it->second.dev == dev)
        it->second.md_pba = md_pba;
}

size_t
RelocationMap::count_for_dev(uint32_t dev) const
{
    size_t n = 0;
    for (const auto &[lba, rel] : map_)
        n += (rel.dev == dev);
    return n;
}

std::vector<const Relocation *>
RelocationMap::all() const
{
    std::vector<const Relocation *> out;
    out.reserve(map_.size());
    for (const auto &[lba, rel] : map_)
        out.push_back(&rel);
    return out;
}

} // namespace raizn
