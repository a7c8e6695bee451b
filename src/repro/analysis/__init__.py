"""Analysis framework: classification, attribution, exfiltration, reports."""

from .attribution import (
    CookiePair,
    CrossDomainAction,
    SiteOwnership,
)
from .columnar import (
    ShardBatch,
    iter_shard_batches,
)
from .entities import EntityMap, default_entity_map
from .exfiltration import (
    MIN_IDENTIFIER_LENGTH,
    ExfilEvent,
    split_candidates,
    split_candidates_fast,
)
from .filterlists import FilterList, FilterRule, FilterRuleError, RuleOptions
from .lists_data import LIST_NAMES, build_lists, combined_list, \
    default_combined_list
from .reports import (
    CONSENT_SIGNAL_COOKIES,
    RankedDomain,
    Study,
    StudyAccumulator,
    Table1Row,
    Table2Row,
    Table5Row,
    render_ranked,
    render_table1,
    render_table2,
    render_table5,
)
from .snapshot import (
    SNAPSHOT_VERSION,
    RefreshResult,
    SnapshotError,
    SnapshotPart,
    StudySnapshot,
    load_snapshot,
    refresh_study,
    save_snapshot,
)

__all__ = [
    "CookiePair",
    "CrossDomainAction",
    "SiteOwnership",
    "ShardBatch",
    "iter_shard_batches",
    "EntityMap",
    "default_entity_map",
    "MIN_IDENTIFIER_LENGTH",
    "ExfilEvent",
    "split_candidates",
    "split_candidates_fast",
    "FilterList",
    "FilterRule",
    "FilterRuleError",
    "RuleOptions",
    "LIST_NAMES",
    "build_lists",
    "combined_list",
    "default_combined_list",
    "CONSENT_SIGNAL_COOKIES",
    "RankedDomain",
    "Study",
    "StudyAccumulator",
    "Table1Row",
    "Table2Row",
    "Table5Row",
    "render_ranked",
    "render_table1",
    "render_table2",
    "render_table5",
    "SNAPSHOT_VERSION",
    "RefreshResult",
    "SnapshotError",
    "SnapshotPart",
    "StudySnapshot",
    "load_snapshot",
    "refresh_study",
    "save_snapshot",
]
