#include "attrib/taxonomy.hh"

namespace xbs
{

const char *
causeName(Cause cause)
{
    switch (cause) {
      case Cause::ColdStart:          return "coldStart";
      case Cause::XbtbMiss:           return "xbtbMiss";
      case Cause::XbcCompulsory:      return "xbcCompulsory";
      case Cause::XbcCapacity:        return "xbcCapacity";
      case Cause::XbcConflict:        return "xbcConflict";
      case Cause::StructMiss:         return "structMiss";
      case Cause::PartialHit:         return "partialHit";
      case Cause::CondMispredict:     return "condMispredict";
      case Cause::BtbMiss:            return "btbMiss";
      case Cause::IndirectMispredict: return "indirectMispredict";
      case Cause::ReturnMispredict:   return "returnMispredict";
      case Cause::IcMiss:             return "icMiss";
      case Cause::L2Miss:             return "l2Miss";
      case Cause::SetSearch:          return "setSearch";
      case Cause::BankConflict:       return "bankConflict";
      case Cause::PromotionRecovery:  return "promotionRecovery";
      case Cause::Unattributed:       return "unattributed";
      case Cause::kCount:             break;
    }
    return "invalid";
}

} // namespace xbs
